#include "compiler/cost_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "graph/op_semantics.hpp"

namespace duet {
namespace {

const OpClassCost& class_of(const DeviceCostParams& p, OpType op) {
  switch (op) {
    case OpType::kDense:
    case OpType::kMatMul:
    case OpType::kBatchMatMul:
      return p.dense;
    case OpType::kConv2d:
      return p.conv;
    case OpType::kLSTM:
    case OpType::kGRU:
      return p.rnn;
    case OpType::kMultiHeadAttention:
      return p.attention;
    default:
      return p.elementwise;
  }
}

}  // namespace

const char* device_kind_name(DeviceKind kind) {
  return kind == DeviceKind::kCpu ? "cpu" : "gpu";
}

DeviceKind other_device(DeviceKind kind) {
  return kind == DeviceKind::kCpu ? DeviceKind::kGpu : DeviceKind::kCpu;
}

double transfer_time_seconds(uint64_t bytes, const TransferParams& link) {
  return link.latency_s + static_cast<double>(bytes) / (link.bandwidth_gbps * 1e9);
}

NodeCostQuantities node_cost_quantities(const Graph& graph, const Node& node) {
  NodeCostQuantities q;
  q.op = node.op;
  q.metadata = is_metadata_op(node.op);
  if (q.metadata) return q;
  const auto c = op_semantics::op_cost(op_semantics::ConcreteOps(graph), node);
  q.flops = c.flops;
  q.read_bytes = c.read;
  q.written_bytes = c.written;
  q.launches = c.launches;
  q.batch = std::max<int64_t>(1, c.batch);
  q.layout_tagged = c.layout_tagged;
  return q;
}

double node_time_from_quantities(const NodeCostQuantities& q,
                                 const DeviceCostParams& params,
                                 const CompileOptions& options) {
  if (q.metadata) return 0.0;

  const OpClassCost& cls = class_of(params, q.op);

  // Occupancy scaling with per-launch kernel size.
  const double flops_per_launch =
      q.launches > 0 ? q.flops / static_cast<double>(q.launches) : q.flops;
  double util = cls.eff;
  if (cls.ref_flops > 0.0 && cls.clamp_hi > cls.clamp_lo) {
    util *= std::clamp(flops_per_launch / cls.ref_flops, cls.clamp_lo, cls.clamp_hi);
  }

  // Occupancy scaling with batch size (how the paper's Fig. 17 batch sweep
  // behaves: GPUs keep gaining throughput as the batch grows).
  const double batch = static_cast<double>(q.batch);
  util *= std::min(params.max_batch_gain, 1.0 + params.batch_gain * (batch - 1.0));

  // Low-level layout optimization (the compiler's layout pass tags convs).
  if (q.layout_tagged) util *= params.layout_bonus;

  if (options.framework_mode) util *= params.framework_eff;
  DUET_CHECK_GT(util, 0.0) << "non-positive utilization for " << op_name(q.op);

  const double compute_s = q.flops / (params.peak_gflops * 1e9 * util);
  const double memory_s = static_cast<double>(q.read_bytes + q.written_bytes) /
                          (params.mem_bw_gbps * 1e9);

  double t = static_cast<double>(q.launches) * params.launch_overhead_s +
             std::max(compute_s, memory_s);
  if (options.framework_mode) t += params.framework_dispatch_s;
  return t;
}

double node_time_seconds(const Graph& graph, const Node& node,
                         const DeviceCostParams& params,
                         const CompileOptions& options) {
  return node_time_from_quantities(node_cost_quantities(graph, node), params,
                                   options);
}

}  // namespace duet
