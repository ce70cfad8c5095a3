#pragma once

// Analytic device performance model. This is the substitution for the
// paper's physical Titan V + Xeon testbed (see DESIGN.md §1): per-node time
// is a roofline term max(compute, memory) plus kernel-launch overhead, with
// per-operator-class effective throughput calibrated so that the Table II
// subgraph costs of the paper are reproduced (RNNs launch-overhead-bound and
// slow on GPU at batch 1; convolutions massively faster on GPU).

#include <cstdint>
#include <string>

#include "compiler/pass.hpp"
#include "graph/graph.hpp"

namespace duet {

enum class DeviceKind : uint8_t { kCpu = 0, kGpu = 1 };
inline constexpr int kNumDeviceKinds = 2;

const char* device_kind_name(DeviceKind kind);
DeviceKind other_device(DeviceKind kind);

// Effective-throughput description of one operator class on one device.
// utilization = eff * clamp(flops_per_launch / ref_flops, clamp_lo, clamp_hi)
// The clamp models occupancy: tiny kernels cannot fill a GPU; very large
// ones saturate it.
struct OpClassCost {
  double eff = 0.1;               // fraction of peak at the reference size
  double ref_flops = 1e6;         // flops per launch where `eff` was measured
  double clamp_lo = 1.0;          // lower clamp on the size scaling
  double clamp_hi = 1.0;          // upper clamp on the size scaling
};

struct DeviceCostParams {
  DeviceKind kind = DeviceKind::kCpu;
  std::string name = "cpu";
  double peak_gflops = 1000.0;       // dense fp32 peak
  double mem_bw_gbps = 100.0;        // streaming memory bandwidth
  double launch_overhead_s = 1e-6;   // per kernel launch / dispatch
  double framework_dispatch_s = 0;   // extra per-op cost in framework mode
  double framework_eff = 1.0;        // kernel-quality penalty in framework mode
  double layout_bonus = 1.0;         // conv speedup when layout-transformed
  double batch_gain = 0.0;           // occupancy gain per extra batch element
  double max_batch_gain = 1.0;       // cap on the batch multiplier

  OpClassCost dense;
  OpClassCost conv;
  OpClassCost rnn;
  OpClassCost attention;
  OpClassCost elementwise;
  OpClassCost fallback;
};

// Interconnect (PCIe) model: time = latency + bytes / bandwidth. Matches the
// linear latency-vs-size shape of the paper's Fig. 5 microbenchmark.
struct TransferParams {
  double latency_s = 10e-6;
  double bandwidth_gbps = 12.0;  // PCIe 3.0 x16 effective
};

double transfer_time_seconds(uint64_t bytes, const TransferParams& link);

// The raw analytic quantities the roofline formula consumes for one node.
// node_time_seconds fills this from the concrete graph; the symbolic layer
// (analysis/symbolic) fills it by specializing SymExpr costs at a binding.
// Both feed node_time_from_quantities, so the two paths cannot drift.
struct NodeCostQuantities {
  OpType op = OpType::kIdentity;
  bool metadata = true;       // terminals/reshape/flatten/identity: zero time
  double flops = 0.0;
  uint64_t read_bytes = 0;
  uint64_t written_bytes = 0;
  int64_t launches = 0;
  int64_t batch = 1;          // max(1, out dim 0)
  bool layout_tagged = false; // conv rewarded by the layout pass
};

// Extracts the quantities for one concrete node.
NodeCostQuantities node_cost_quantities(const Graph& graph, const Node& node);

// Roofline evaluation shared by the concrete and symbolic paths.
double node_time_from_quantities(const NodeCostQuantities& q,
                                 const DeviceCostParams& params,
                                 const CompileOptions& options);

// Modeled execution time of one node. Returns 0 for pure-metadata ops
// (reshape/flatten/identity) and terminals.
double node_time_seconds(const Graph& graph, const Node& node,
                         const DeviceCostParams& params,
                         const CompileOptions& options);

}  // namespace duet
