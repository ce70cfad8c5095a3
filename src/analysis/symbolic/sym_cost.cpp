#include "analysis/symbolic/sym_cost.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "graph/op_semantics.hpp"

namespace duet::symbolic {
namespace {

// The symbolic cost context of the op-semantics table: shapes come from a
// finished inference result, and every quantity is a SymExpr.
struct SymCostOps {
  using ShapeT = SymShape;
  using DimT = SymExpr;
  using FlopsT = SymExpr;
  using BytesT = SymExpr;

  const Graph& g;
  const SymbolicShapes& shapes;

  const Graph& graph() const { return g; }
  const SymShape& shape(const Node& t) const {
    DUET_CHECK(t.id >= 0 && static_cast<size_t>(t.id) < shapes.shapes.size());
    return shapes.shapes[static_cast<size_t>(t.id)];
  }
};

}  // namespace

SymNodeCost sym_node_cost(const Graph& graph, const Node& node,
                          const SymbolicShapes& shapes) {
  SymNodeCost c;
  c.metadata = is_metadata_op(node.op);
  if (c.metadata) return c;
  const SymCostOps ctx{graph, shapes};
  auto q = op_semantics::op_cost(ctx, node);
  c.flops = std::move(q.flops);
  c.launches = std::move(q.launches);
  c.read_bytes = std::move(q.read);
  c.written_bytes = std::move(q.written);
  c.batch = std::move(q.batch);
  c.layout_tagged = q.layout_tagged;
  return c;
}

NodeCostQuantities specialize(const SymNodeCost& cost,
                              const SymBindings& bindings, OpType op) {
  NodeCostQuantities q;
  q.op = op;
  q.metadata = cost.metadata;
  if (q.metadata) return q;
  const int64_t flops = cost.flops.eval(bindings);
  DUET_CHECK_GE(flops, 0) << "negative symbolic flops";
  q.flops = static_cast<double>(flops);
  q.read_bytes = static_cast<uint64_t>(cost.read_bytes.eval(bindings));
  q.written_bytes = static_cast<uint64_t>(cost.written_bytes.eval(bindings));
  q.launches = cost.launches.eval(bindings);
  q.batch = std::max<int64_t>(1, cost.batch.eval(bindings));
  q.layout_tagged = cost.layout_tagged;
  return q;
}

std::vector<SymSubgraphCost> sym_partition_costs(const Graph& parent,
                                                 const Partition& partition,
                                                 const SymbolicShapes& shapes) {
  std::vector<SymSubgraphCost> out;
  out.reserve(partition.subgraphs.size());
  const SymCostOps ctx{parent, shapes};
  for (const Subgraph& sg : partition.subgraphs) {
    SymSubgraphCost c;
    c.subgraph = sg.id;
    for (NodeId id : sg.parent_nodes) {
      const SymNodeCost nc = sym_node_cost(parent, parent.node(id), shapes);
      c.flops += nc.flops;
      c.read_bytes += nc.read_bytes;
      c.written_bytes += nc.written_bytes;
      c.launches += nc.launches;
    }
    for (const Subgraph::BoundaryInput& b : sg.boundary_inputs) {
      c.transfer_in_bytes +=
          op_semantics::tensor_bytes(ctx, parent.node(b.parent_producer));
    }
    for (NodeId id : sg.boundary_outputs) {
      c.transfer_out_bytes += op_semantics::tensor_bytes(ctx, parent.node(id));
    }
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace duet::symbolic
