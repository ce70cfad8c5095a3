#pragma once

// Symbolic cost derivation: per-node and per-subgraph flops / bytes / launch
// counts as polynomials of the shape symbols. sym_node_cost instantiates the
// op-semantics table's cost formulas (graph/op_semantics.hpp) over SymExpr,
// the same formulas behind node_flops / node_bytes / node_kernel_launches;
// the boundary byte sums parallel partition/subgraph.cpp's. Specializing at a
// concrete binding reproduces the concrete quantities bit-for-bit (all zoo
// costs are < 2^53, where int64 -> double is lossless), which
// tests/test_symbolic.cpp certifies.

#include <vector>

#include "analysis/symbolic/sym_shape_inference.hpp"
#include "compiler/cost_model.hpp"
#include "partition/partitioner.hpp"

namespace duet::symbolic {

// Symbolic analogue of NodeCostQuantities (flops/bytes/launches only —
// batch and the layout tag specialize per binding).
struct SymNodeCost {
  bool metadata = true;
  SymExpr flops;
  SymExpr read_bytes;
  SymExpr written_bytes;
  SymExpr launches;
  SymExpr batch{1};  // out dim 0 (clamped to >= 1 at specialization)
  bool layout_tagged = false;
};

// Quantities for one node, over the symbolic shapes previously inferred for
// `graph` (shapes.shapes must be indexed by this graph's node ids).
SymNodeCost sym_node_cost(const Graph& graph, const Node& node,
                          const SymbolicShapes& shapes);

// Exact specialization at a binding — the bridge into the shared roofline
// evaluator node_time_from_quantities.
NodeCostQuantities specialize(const SymNodeCost& cost,
                              const SymBindings& bindings, OpType op);

// Per-subgraph totals plus boundary transfer sizes (what the runtime would
// move across PCIe when the subgraph is placed opposite its neighbours).
struct SymSubgraphCost {
  int subgraph = -1;
  SymExpr flops;
  SymExpr read_bytes;
  SymExpr written_bytes;
  SymExpr launches;
  SymExpr transfer_in_bytes;
  SymExpr transfer_out_bytes;
};

// Costs for every subgraph of `partition`, derived from the PARENT graph's
// symbolic shapes (boundary producers are parent nodes).
std::vector<SymSubgraphCost> sym_partition_costs(const Graph& parent,
                                                 const Partition& partition,
                                                 const SymbolicShapes& shapes);

}  // namespace duet::symbolic
