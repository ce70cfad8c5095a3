#pragma once

// The graph-level optimization pipeline (paper Fig. 1, layers 2-3). Passes
// are pure Graph -> Graph rewrites; the PassManager runs a configured
// sequence. This models the TVM/Relay graph-level stage: operator fusion,
// constant folding, CSE, DCE, and layout transform.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace duet {

// What the "compiler" is asked to do: the whole graph-level pipeline, or
// (framework_mode) none of it. framework_mode models the PyTorch/TensorFlow
// baselines of the paper: no graph-level optimization and per-operator
// interpreter dispatch overhead at runtime. The cost model assumes converged
// low-level schedules, as the calibration does.
struct CompileOptions {
  bool framework_mode = false;

  static CompileOptions compiler_defaults() { return {}; }
  static CompileOptions framework() { return {.framework_mode = true}; }
};

using Pass = std::function<Graph(const Graph&)>;

struct NamedPass {
  std::string name;
  Pass run;
};

class PassManager {
 public:
  // Builds the standard pipeline for `options`.
  static PassManager standard(const CompileOptions& options);

  void add(std::string name, Pass pass);
  const std::vector<NamedPass>& passes() const { return passes_; }

  // Runs all passes in order. In checked mode (verification_enabled(), the
  // default) the full graph verifier runs on the input and after every pass
  // and a violation throws VerifyError attributed to the offending pass;
  // otherwise only the cheap structural Graph::validate() runs.
  Graph run(Graph graph) const;

 private:
  std::vector<NamedPass> passes_;
};

// --- individual passes --------------------------------------------------------
// Fuses unary activation epilogues into Dense/Conv2d/BatchNorm producers and
// collapses chains of >= 2 fusible unary ops into kElementwiseChain nodes.
Graph fuse_operators(const Graph& graph);
// Folds inference-mode batch norms into their producing convolutions
// (TVM's fold_scale_axis); numerically exact.
Graph fold_batch_norm(const Graph& graph);
// Evaluates nodes whose inputs are all constants.
Graph fold_constants(const Graph& graph);
// Removes nodes unreachable from the outputs (inputs are always kept so the
// graph signature is stable).
Graph eliminate_dead_code(const Graph& graph);
// Merges structurally identical nodes.
Graph eliminate_common_subexpressions(const Graph& graph);
// Tags convolution nodes with an optimized layout; semantics unchanged, the
// cost model rewards tagged nodes (models TVM's NCHWc transform).
Graph transform_layout(const Graph& graph);
// Removes identity nodes, collapses reshape-of-reshape chains, and drops
// no-op reshapes/flattens.
Graph simplify_shape_ops(const Graph& graph);

}  // namespace duet
