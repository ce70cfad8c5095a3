#include "graph/builder.hpp"

#include <cmath>

#include "common/error.hpp"

namespace duet {

Graph GraphBuilder::finish(std::vector<NodeId> outputs) {
  for (NodeId out : outputs) graph_.mark_output(out);
  graph_.validate();
  return std::move(graph_);
}

NodeId GraphBuilder::input(Shape shape, const std::string& name, DType dtype) {
  return graph_.add_input(std::move(shape), name, dtype);
}

NodeId GraphBuilder::constant(Tensor value, const std::string& name) {
  return graph_.add_constant(std::move(value), name);
}

NodeId GraphBuilder::weight(Shape shape, const std::string& name) {
  DUET_CHECK_GE(shape.rank(), 1u);
  const int64_t fan_in = shape.dim(0);
  const float stddev = std::sqrt(2.0f / static_cast<float>(std::max<int64_t>(fan_in, 1)));
  return graph_.add_constant(init_normal(std::move(shape), stddev), name);
}

Tensor GraphBuilder::init_normal(Shape shape, float stddev) {
  TensorRecipe recipe;
  recipe.seed = seed_;
  recipe.stream = next_stream_++;
  recipe.stddev = stddev;
  return Tensor::from_recipe(std::move(shape), recipe);
}

int64_t GraphBuilder::last_dim(NodeId x) const {
  const Shape& s = graph_.node(x).out_shape;
  DUET_CHECK_GE(s.rank(), 1u);
  return s.dim(s.rank() - 1);
}

NodeId GraphBuilder::dense(NodeId x, int64_t out_features, const std::string& act,
                           const std::string& name) {
  const int64_t in_features = last_dim(x);
  const NodeId w = weight(Shape{in_features, out_features},
                          name.empty() ? "" : name + ".w");
  const NodeId b = constant(Tensor::zeros(Shape{out_features}),
                            name.empty() ? "" : name + ".b");
  AttrMap attrs;
  if (!act.empty()) attrs.set("epilogue", act);
  return graph_.add_node(OpType::kDense, {x, w, b}, std::move(attrs), name);
}

NodeId GraphBuilder::conv2d(NodeId x, int64_t out_channels, int kernel, int stride,
                            int padding, const std::string& name) {
  const Shape& xs = graph_.node(x).out_shape;
  DUET_CHECK_EQ(xs.rank(), 4u) << "conv2d input must be NCHW";
  const int64_t in_channels = xs.dim(1);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_channels * kernel * kernel));
  const NodeId wn = constant(
      init_normal(Shape{out_channels, in_channels, kernel, kernel}, stddev),
      name.empty() ? "" : name + ".w");
  const NodeId bn = constant(Tensor::zeros(Shape{out_channels}),
                             name.empty() ? "" : name + ".b");
  AttrMap attrs;
  attrs.set("stride", static_cast<int64_t>(stride));
  attrs.set("padding", static_cast<int64_t>(padding));
  return graph_.add_node(OpType::kConv2d, {x, wn, bn}, std::move(attrs), name);
}

NodeId GraphBuilder::batch_norm(NodeId x, const std::string& name) {
  const Shape& xs = graph_.node(x).out_shape;
  DUET_CHECK_EQ(xs.rank(), 4u);
  const int64_t c = xs.dim(1);
  const NodeId scale = constant(Tensor::full(Shape{c}, 1.0f),
                                name.empty() ? "" : name + ".scale");
  const NodeId shift = constant(Tensor::zeros(Shape{c}),
                                name.empty() ? "" : name + ".shift");
  return graph_.add_node(OpType::kBatchNorm, {x, scale, shift}, {}, name);
}

NodeId GraphBuilder::lstm(NodeId x, int64_t hidden, const std::string& name) {
  const int64_t input = last_dim(x);
  const NodeId w_ih = weight(Shape{input, 4 * hidden},
                             name.empty() ? "" : name + ".w_ih");
  const NodeId w_hh = weight(Shape{hidden, 4 * hidden},
                             name.empty() ? "" : name + ".w_hh");
  const NodeId bias = constant(Tensor::zeros(Shape{4 * hidden}),
                               name.empty() ? "" : name + ".bias");
  return graph_.add_node(OpType::kLSTM, {x, w_ih, w_hh, bias}, {}, name);
}

NodeId GraphBuilder::gru(NodeId x, int64_t hidden, const std::string& name) {
  const int64_t input = last_dim(x);
  const NodeId w_ih = weight(Shape{input, 3 * hidden},
                             name.empty() ? "" : name + ".w_ih");
  const NodeId w_hh = weight(Shape{hidden, 3 * hidden},
                             name.empty() ? "" : name + ".w_hh");
  const NodeId bias = constant(Tensor::zeros(Shape{3 * hidden}),
                               name.empty() ? "" : name + ".bias");
  return graph_.add_node(OpType::kGRU, {x, w_ih, w_hh, bias}, {}, name);
}

NodeId GraphBuilder::embedding(NodeId indices, int64_t vocab, int64_t dim,
                               const std::string& name) {
  const NodeId t = constant(init_normal(Shape{vocab, dim}, 0.05f),
                            name.empty() ? "" : name + ".table");
  return graph_.add_node(OpType::kEmbedding, {indices, t}, {}, name);
}

NodeId GraphBuilder::attention(NodeId x, int64_t heads, const std::string& name) {
  const int64_t model = last_dim(x);
  const NodeId wqkv = weight(Shape{model, 3 * model},
                             name.empty() ? "" : name + ".wqkv");
  const NodeId wo = weight(Shape{model, model}, name.empty() ? "" : name + ".wo");
  AttrMap attrs;
  attrs.set("heads", heads);
  return graph_.add_node(OpType::kMultiHeadAttention, {x, wqkv, wo},
                         std::move(attrs), name);
}

NodeId GraphBuilder::layer_norm(NodeId x, const std::string& name) {
  const int64_t features = last_dim(x);
  const NodeId gamma = constant(Tensor::full(Shape{features}, 1.0f),
                                name.empty() ? "" : name + ".gamma");
  const NodeId beta = constant(Tensor::zeros(Shape{features}),
                               name.empty() ? "" : name + ".beta");
  return graph_.add_node(OpType::kLayerNorm, {x, gamma, beta}, {}, name);
}

NodeId GraphBuilder::add(NodeId a, NodeId b) {
  return graph_.add_node(OpType::kAdd, {a, b});
}

NodeId GraphBuilder::mul(NodeId a, NodeId b) {
  return graph_.add_node(OpType::kMul, {a, b});
}

NodeId GraphBuilder::relu(NodeId x) { return graph_.add_node(OpType::kReLU, {x}); }

NodeId GraphBuilder::sigmoid(NodeId x) {
  return graph_.add_node(OpType::kSigmoid, {x});
}

NodeId GraphBuilder::tanh(NodeId x) { return graph_.add_node(OpType::kTanh, {x}); }

NodeId GraphBuilder::gelu(NodeId x) { return graph_.add_node(OpType::kGelu, {x}); }

NodeId GraphBuilder::softmax(NodeId x) {
  return graph_.add_node(OpType::kSoftmax, {x});
}

NodeId GraphBuilder::matmul(NodeId a, NodeId b) {
  return graph_.add_node(OpType::kMatMul, {a, b});
}

NodeId GraphBuilder::concat(std::vector<NodeId> parts, int axis) {
  AttrMap attrs;
  attrs.set("axis", static_cast<int64_t>(axis));
  return graph_.add_node(OpType::kConcat, std::move(parts), std::move(attrs));
}

NodeId GraphBuilder::flatten(NodeId x) {
  return graph_.add_node(OpType::kFlatten, {x});
}

NodeId GraphBuilder::reshape(NodeId x, Shape dims) {
  AttrMap attrs;
  attrs.set("dims", dims.dims());
  return graph_.add_node(OpType::kReshape, {x}, std::move(attrs));
}

NodeId GraphBuilder::max_pool2d(NodeId x, int kernel, int stride, int padding) {
  AttrMap attrs;
  attrs.set("kernel", static_cast<int64_t>(kernel));
  attrs.set("stride", static_cast<int64_t>(stride));
  attrs.set("padding", static_cast<int64_t>(padding));
  return graph_.add_node(OpType::kMaxPool2d, {x}, std::move(attrs));
}

NodeId GraphBuilder::global_avg_pool(NodeId x) {
  return graph_.add_node(OpType::kGlobalAvgPool, {x});
}

NodeId GraphBuilder::reduce_mean(NodeId x, int axis) {
  AttrMap attrs;
  attrs.set("axis", static_cast<int64_t>(axis));
  return graph_.add_node(OpType::kReduceMean, {x}, std::move(attrs));
}

NodeId GraphBuilder::slice_rows(NodeId x, int64_t begin, int64_t end) {
  AttrMap attrs;
  attrs.set("begin", begin);
  attrs.set("end", end);
  return graph_.add_node(OpType::kSliceRows, {x}, std::move(attrs));
}

NodeId GraphBuilder::seq_mean(NodeId x) { return reduce_mean(x, 1); }

NodeId GraphBuilder::last_timestep(NodeId x) {
  return graph_.add_node(OpType::kSeqLast, {x});
}

}  // namespace duet
