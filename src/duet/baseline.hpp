#pragma once

// Single-device baselines of the paper's evaluation:
//   * kTvmCpu / kTvmGpu           — compiler-optimized operators-in-sequence
//     on one device (the paper's TVM-CPU / TVM-GPU bars), and
//   * kFrameworkCpu / kFrameworkGpu — unfused graph with per-operator
//     dispatch overhead (the PyTorch / TensorFlow bars).
// GPU baselines pay PCIe for model inputs and outputs.

#include <map>
#include <string>

#include "device/device.hpp"
#include "device/interconnect.hpp"

namespace duet {

enum class BaselineKind { kTvmCpu, kTvmGpu, kFrameworkCpu, kFrameworkGpu };
const char* baseline_name(BaselineKind kind);
DeviceKind baseline_device(BaselineKind kind);

class Baseline {
 public:
  // `fingerprint`, when given, is the caller's fingerprint_graph(model); the
  // compile-cache lookup then skips hashing the model again.
  Baseline(const Graph& model, BaselineKind kind, DevicePair& devices,
           const GraphFingerprint* fingerprint = nullptr);

  BaselineKind kind() const { return kind_; }
  const CompiledSubgraph& compiled() const { return compiled_; }

  // Modeled end-to-end latency (kernels in sequence + transfers on GPU).
  double latency(bool with_noise = false);

  // Numeric execution + modeled latency.
  struct Result {
    std::vector<Tensor> outputs;
    double latency_s = 0.0;
  };
  Result infer(const std::map<NodeId, Tensor>& feeds, bool with_noise = false);

 private:
  double transfer_overhead(bool with_noise);

  BaselineKind kind_;
  DevicePair& devices_;
  CompiledSubgraph compiled_;
  std::vector<NodeId> parent_inputs_;
  std::vector<NodeId> compiled_inputs_;
  uint64_t input_bytes_ = 0;
  uint64_t output_bytes_ = 0;
};

}  // namespace duet
