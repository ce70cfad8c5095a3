#pragma once

// Symbolic shape inference: the whole-graph instantiation of the op-semantics
// table (graph/op_semantics.hpp) over SymExpr dims. Input dims named by
// SymbolicOptions become symbols (by default dim 0 of every kInput is the
// batch symbol `B`), and every op contract infer_node_type checks is checked
// here over the symbol domain. Where the concrete pass throws, this pass
// reports a lint-grade diagnostic and keeps going with the node's recorded
// concrete shape, so one run surfaces every inexpressible contract:
//
//   * symbolic-shape-contract — an op's output shape cannot be expressed as
//     a polynomial of the symbols (a reshape that folds the batch away, a
//     stride that does not divide a symbolic extent, a rank mismatch), or a
//     precondition (slice end <= rows) is not provable over the domain.
//   * unbounded-dim — a symbolic dim has no declared range (or its bound
//     saturates int64), so downstream cost/bucket reasoning is unbounded.
//
// Specializing the result at a concrete binding reproduces infer_node_type
// exactly (tests/test_symbolic.cpp checks bit-identity across the zoo and
// randomized twin graphs).

#include <map>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/symbolic/sym_expr.hpp"
#include "graph/graph.hpp"

namespace duet::symbolic {

struct SymbolicOptions {
  // Symbol substituted for dim `batch_dim` of every kInput (all zoo models
  // are batch-major). Empty disables the default binding.
  std::string batch_symbol = "B";
  size_t batch_dim = 0;

  // Declared symbol ranges. A referenced symbol with no range triggers the
  // unbounded-dim diagnostic (bounds still work, conservatively, as
  // "unbounded"). Defaults to B in [1, 64] when empty and batch_symbol set.
  SymDomain domain;

  // Extra bindings for tests / the CLI: input node name -> dim index ->
  // symbol name (e.g. {"text_embeddings": {1: "T"}} makes seq length
  // symbolic). Applied after the batch default, so overrides win.
  std::map<std::string, std::map<size_t, std::string>> input_dims;
};

struct SymbolicShapes {
  // Indexed by NodeId, parallel to Graph::nodes().
  std::vector<SymShape> shapes;
  std::vector<DType> dtypes;

  // symbolic-shape-contract / unbounded-dim findings (warning severity:
  // batch-polymorphism is a portability property, not plan correctness).
  VerifyResult diagnostics;

  // The domain actually analyzed (after defaulting) — what bounds and the
  // crossover solver use.
  SymDomain domain;
  std::string batch_symbol;

  bool clean() const { return diagnostics.diagnostics().empty(); }
  // True if any diagnostic carries `rule`.
  bool has(const std::string& rule) const;
};

// Runs symbolic inference over the whole graph. Never throws on contract
// violations (they become diagnostics); structural breakage (dangling input
// ids) is the graph verifier's business and is skipped silently here.
SymbolicShapes infer_symbolic(const Graph& graph,
                              const SymbolicOptions& options = {});

}  // namespace duet::symbolic
