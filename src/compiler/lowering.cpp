#include "compiler/lowering.hpp"

#include "common/error.hpp"
#include "compiler/compile_cache.hpp"
#include "graph/op_semantics.hpp"
#include "graph/shape_inference.hpp"

namespace duet {
namespace {

CompiledSubgraph compile_uncached(const Graph& graph, DeviceKind device,
                                  const CompileOptions& options,
                                  const DeviceCostParams& params) {
  Graph optimized = PassManager::standard(options).run(graph);
  std::vector<CompiledKernel> kernels;
  kernels.reserve(optimized.num_nodes());
  for (const Node& node : optimized.nodes()) {
    if (node.is_input() || node.is_constant()) continue;
    CompiledKernel k;
    k.node = node.id;
    const auto c = op_semantics::op_cost(op_semantics::ConcreteOps(optimized), node);
    k.flops = c.flops;
    k.bytes_read = c.read;
    k.bytes_written = c.written;
    k.launches = c.launches;
    k.est_time_s = node_time_seconds(optimized, node, params, options);
    kernels.push_back(k);
  }
  return CompiledSubgraph(std::move(optimized), device, options, std::move(kernels));
}

}  // namespace

CompiledSubgraph::CompiledSubgraph(Graph graph, DeviceKind device,
                                   CompileOptions options,
                                   std::vector<CompiledKernel> kernels)
    : graph_(std::move(graph)),
      device_(device),
      options_(options),
      kernels_(std::move(kernels)) {
  for (const CompiledKernel& k : kernels_) est_total_ += k.est_time_s;
}

uint64_t CompiledSubgraph::input_bytes() const {
  uint64_t total = 0;
  for (NodeId id : graph_.input_ids()) {
    total += node_output_bytes(graph_.node(id));
  }
  return total;
}

uint64_t CompiledSubgraph::output_bytes() const {
  uint64_t total = 0;
  for (NodeId id : graph_.outputs()) {
    total += node_output_bytes(graph_.node(id));
  }
  return total;
}

std::vector<Tensor> CompiledSubgraph::run(const std::map<NodeId, Tensor>& feeds) const {
  return evaluate_graph(graph_, feeds);
}

CompiledSubgraph compile_for_device(const Graph& graph, DeviceKind device,
                                    const CompileOptions& options,
                                    const DeviceCostParams& params,
                                    const GraphFingerprint* fingerprint) {
  DUET_CHECK(params.kind == device) << "cost params are for the wrong device";
  CompileCache& cache = CompileCache::instance();
  if (!cache.enabled()) {
    cache.count_bypass();
    return compile_uncached(graph, device, options, params);
  }
  // Keyed by the value-inclusive fingerprint: the artifact embeds constant
  // tensors, so structure alone is not a safe identity for numeric reuse.
  // Node names fold in on top — the artifact embeds those too, and the plan
  // matches feeds against the compiled graph's input names.
  const GraphFingerprint fp =
      fingerprint != nullptr ? *fingerprint : fingerprint_graph(graph);
  const uint64_t key = hash_mix(
      CompileCache::make_key(fp, device, compile_options_key(options),
                             device_params_key(params)),
      fingerprint_names(graph));
  if (std::shared_ptr<const CompiledSubgraph> hit = cache.lookup(key)) {
    return *hit;
  }
  auto compiled = std::make_shared<const CompiledSubgraph>(
      compile_uncached(graph, device, options, params));
  cache.insert(key, compiled);
  return *compiled;
}

}  // namespace duet
