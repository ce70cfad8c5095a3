#include <utility>

#include "analysis/graph_verifier.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "compiler/pass.hpp"
#include "compiler/rewrite.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {

NodeId copy_node_into(const Node& n, Graph& dst, const std::vector<NodeId>& remap) {
  if (n.is_input()) {
    const NodeId id = dst.add_input(n.out_shape, n.name, n.out_dtype);
    if (n.value.defined()) dst.mutable_node(id).value = n.value;
    return id;
  }
  if (n.is_constant()) {
    return dst.add_constant(n.value, n.name);
  }
  std::vector<NodeId> inputs;
  inputs.reserve(n.inputs.size());
  for (NodeId in : n.inputs) {
    DUET_CHECK(remap[static_cast<size_t>(in)] != kInvalidNode)
        << "dangling remap for input " << in << " of node " << n.id;
    inputs.push_back(remap[static_cast<size_t>(in)]);
  }
  return dst.add_node(n.op, std::move(inputs), n.attrs, n.name);
}

void copy_outputs(const Graph& src, Graph& dst, const std::vector<NodeId>& remap) {
  for (NodeId out : src.outputs()) {
    const NodeId mapped = remap[static_cast<size_t>(out)];
    DUET_CHECK(mapped != kInvalidNode) << "graph output " << out << " was removed";
    dst.mark_output(mapped);
  }
}

PassManager PassManager::standard(const CompileOptions& options) {
  PassManager pm;
  if (options.framework_mode) return pm;
  pm.add("constant_fold", fold_constants);
  pm.add("simplify_shape_ops", simplify_shape_ops);
  pm.add("fold_batch_norm", fold_batch_norm);
  pm.add("fusion", fuse_operators);
  pm.add("cse", eliminate_common_subexpressions);
  pm.add("dce", eliminate_dead_code);
  pm.add("layout", transform_layout);
  return pm;
}

void PassManager::add(std::string name, Pass pass) {
  passes_.push_back({std::move(name), std::move(pass)});
}

Graph PassManager::run(Graph graph) const {
  // Checked mode: the full graph verifier runs on the input and after every
  // pass, so a rewrite that breaks an IR invariant is reported against the
  // pass that broke it (rule + node id) instead of surfacing as downstream
  // garbage. Opted out (set_verification_enabled(false)) it degrades to the
  // cheap structural Graph::validate().
  const bool checked = verification_enabled();
  if (checked) {
    VerifyResult r = verify_graph(graph);
    r.attribute("<input>");
    r.throw_if_failed("graph handed to the pass pipeline is malformed");
  }
  static telemetry::Counter& pass_runs = telemetry::counter("compiler.pass_runs");
  for (const NamedPass& p : passes_) {
    const size_t before = graph.num_nodes();
    {
      // Pass-attributed span: where compile time actually goes, per rewrite.
      telemetry::ScopedSpan span(
          telemetry::enabled() ? "pass:" + p.name : std::string(), "compiler",
          telemetry::enabled() ? graph.name() : std::string());
      graph = p.run(graph);
      pass_runs.add(1);
    }
    if (checked) {
      VerifyResult r = verify_graph(graph);
      r.attribute("pass " + p.name);
      r.throw_if_failed("pass " + p.name + " broke IR invariants");
    } else {
      graph.validate();
    }
    DUET_LOG_DEBUG << "pass " << p.name << ": " << before << " -> "
                   << graph.num_nodes() << " nodes";
  }
  return graph;
}

}  // namespace duet
