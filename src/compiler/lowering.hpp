#pragma once

// Lowering / "codegen": turns an (optimized) graph into a CompiledSubgraph —
// the per-device executable artifact the devices run and the profiler
// measures. In TVM terms this is the back-end stage; here the "generated
// code" is the ordered kernel list with modeled per-kernel costs, while
// numerical execution reuses the reference kernels so results stay checkable.

#include <vector>

#include "compiler/cost_model.hpp"
#include "compiler/pass.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph.hpp"

namespace duet {

struct CompiledKernel {
  NodeId node = kInvalidNode;  // node in the *optimized* graph
  double flops = 0.0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  int64_t launches = 0;
  double est_time_s = 0.0;  // modeled time on the target device
};

class CompiledSubgraph {
 public:
  CompiledSubgraph() = default;
  CompiledSubgraph(Graph graph, DeviceKind device, CompileOptions options,
                   std::vector<CompiledKernel> kernels);

  const Graph& graph() const { return graph_; }
  DeviceKind device() const { return device_; }
  const CompileOptions& options() const { return options_; }
  const std::vector<CompiledKernel>& kernels() const { return kernels_; }

  // Sum of modeled kernel times.
  double est_total_time_s() const { return est_total_; }
  // Payload sizes of the graph's inputs / outputs (communication analysis).
  uint64_t input_bytes() const;
  uint64_t output_bytes() const;

  // Executes numerically (reference kernels) and returns outputs.
  std::vector<Tensor> run(const std::map<NodeId, Tensor>& feeds) const;

 private:
  Graph graph_;
  DeviceKind device_ = DeviceKind::kCpu;
  CompileOptions options_;
  std::vector<CompiledKernel> kernels_;
  double est_total_ = 0.0;
};

// Full pipeline: graph-level passes (per `options`) then per-node cost
// assignment for `device`. `fingerprint`, when given, is the caller's
// fingerprint_graph(graph): the compile-cache key is built from it instead
// of hashing the graph again.
CompiledSubgraph compile_for_device(const Graph& graph, DeviceKind device,
                                    const CompileOptions& options,
                                    const DeviceCostParams& params,
                                    const GraphFingerprint* fingerprint = nullptr);

}  // namespace duet
