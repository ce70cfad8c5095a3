#pragma once

// verify_graph: structural + semantic well-formedness checks for the graph
// IR, run between compiler passes in checked mode (the Relay/chainer-compiler
// pass-contract discipline). Unlike Graph::validate(), which throws on the
// first structural problem, the verifier collects every violation with a
// stable rule slug so PassManager can report *which pass* broke *which
// invariant* on *which node*.
//
// Invariant catalogue (docs/verification.md): dense-ids, dangling-input,
// acyclicity, arity, terminal-value, shape-infer, type-consistency,
// consumer-index, outputs, unique-names.

#include "analysis/diagnostics.hpp"
#include "graph/graph.hpp"

namespace duet {

// Collects every structural and semantic (re-derived shape/dtype) violation.
VerifyResult verify_graph(const Graph& graph);

}  // namespace duet
