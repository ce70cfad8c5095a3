#pragma once

// Fluent construction API on top of Graph. The model zoo uses this to build
// networks the way a framework front-end would. Random weights come from the
// counter-based generator (common/counter_normal.hpp): element i of the k-th
// random tensor a builder creates under seed s depends only on (s, k, i), so
// every run of an experiment sees identical parameters whatever the thread
// count or instruction set. They are recipe-backed tensors: building a graph
// generates no weight bytes; the first read of each weight does.

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace duet {

class GraphBuilder {
 public:
  explicit GraphBuilder(std::string graph_name, uint64_t seed = 42)
      : graph_(std::move(graph_name)), seed_(seed) {}

  Graph& graph() { return graph_; }

  // Finalizes: marks `outputs` (if not already marked), validates, moves out.
  Graph finish(std::vector<NodeId> outputs);

  // --- terminals -------------------------------------------------------------
  NodeId input(Shape shape, const std::string& name = {},
               DType dtype = DType::kFloat32);
  NodeId constant(Tensor value, const std::string& name = {});
  // Xavier-ish random weight: stddev = sqrt(2 / fan_in).
  NodeId weight(Shape shape, const std::string& name = {});

  // --- layers ----------------------------------------------------------------
  NodeId dense(NodeId x, int64_t out_features, const std::string& act = "",
               const std::string& name = {});
  NodeId conv2d(NodeId x, int64_t out_channels, int kernel, int stride, int padding,
                const std::string& name = {});
  NodeId batch_norm(NodeId x, const std::string& name = {});
  NodeId lstm(NodeId x, int64_t hidden, const std::string& name = {});
  NodeId gru(NodeId x, int64_t hidden, const std::string& name = {});
  NodeId embedding(NodeId indices, int64_t vocab, int64_t dim,
                   const std::string& name = {});
  NodeId attention(NodeId x, int64_t heads, const std::string& name = {});
  NodeId layer_norm(NodeId x, const std::string& name = {});

  // --- ops ---------------------------------------------------------------------
  NodeId add(NodeId a, NodeId b);
  NodeId mul(NodeId a, NodeId b);
  NodeId relu(NodeId x);
  NodeId sigmoid(NodeId x);
  NodeId tanh(NodeId x);
  NodeId gelu(NodeId x);
  NodeId softmax(NodeId x);
  NodeId matmul(NodeId a, NodeId b);
  NodeId concat(std::vector<NodeId> parts, int axis);
  NodeId flatten(NodeId x);
  NodeId reshape(NodeId x, Shape dims);
  NodeId max_pool2d(NodeId x, int kernel, int stride, int padding);
  NodeId global_avg_pool(NodeId x);
  NodeId reduce_mean(NodeId x, int axis);
  NodeId slice_rows(NodeId x, int64_t begin, int64_t end);
  // Mean over the sequence axis of [batch, seq, features] -> [batch, features].
  NodeId seq_mean(NodeId x);
  // Last timestep of [batch, seq, features] -> [batch, features].
  NodeId last_timestep(NodeId x);

 private:
  int64_t last_dim(NodeId x) const;
  // Recipe-backed normal(0, stddev) tensor on the builder's next weight
  // stream — the one path weight(), conv2d() and embedding() share.
  Tensor init_normal(Shape shape, float stddev);

  Graph graph_;
  uint64_t seed_;
  uint64_t next_stream_ = 0;  // ordinal of the next random tensor
};

}  // namespace duet
