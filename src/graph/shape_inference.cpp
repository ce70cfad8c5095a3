#include "graph/shape_inference.hpp"

#include "graph/op_semantics.hpp"

namespace duet {

InferredType infer_node_type(const Graph& g, const Node& n) {
  op_semantics::ConcreteOps ctx(g);
  return {op_semantics::output_shape(ctx, n),
          op_produces_int(n.op) ? DType::kInt32 : DType::kFloat32};
}

double node_flops(const Graph& g, const Node& n) {
  return op_semantics::op_cost(op_semantics::ConcreteOps(g), n).flops;
}

int64_t node_kernel_launches(const Graph& g, const Node& n) {
  return op_semantics::op_cost(op_semantics::ConcreteOps(g), n).launches;
}

NodeBytes node_bytes(const Graph& g, const Node& n) {
  const auto c = op_semantics::op_cost(op_semantics::ConcreteOps(g), n);
  return {c.read, c.written};
}

uint64_t node_output_bytes(const Node& n) {
  return static_cast<uint64_t>(n.out_shape.numel()) * dtype_size(n.out_dtype);
}

}  // namespace duet
