#include "sched/list_scheduler.hpp"

#include <map>
#include <numeric>

#include "graph/shape_inference.hpp"

namespace duet {

TaskGraph TaskGraph::repeated(int copies) const {
  DUET_CHECK_GT(copies, 0);
  const int n = static_cast<int>(size());
  const int edges = static_cast<int>(consumers.size());
  TaskGraph g;
  for (int c = 0; c < copies; ++c) {
    const int base = c * n;
    for (int t = 0; t < n; ++t) {
      g.rank.push_back(base + rank[static_cast<size_t>(t)]);
      g.consumer_begin.push_back(c * edges + consumer_begin[static_cast<size_t>(t)]);
    }
    for (int consumer : consumers) g.consumers.push_back(base + consumer);
    for (int o : outputs) g.outputs.push_back(base + o);
    g.num_deps.insert(g.num_deps.end(), num_deps.begin(), num_deps.end());
    g.edge_bytes.insert(g.edge_bytes.end(), edge_bytes.begin(), edge_bytes.end());
    g.input_bytes.insert(g.input_bytes.end(), input_bytes.begin(), input_bytes.end());
    g.output_bytes.insert(g.output_bytes.end(), output_bytes.begin(),
                          output_bytes.end());
  }
  g.consumer_begin.push_back(copies * edges);
  return g;
}

TaskGraph subgraph_flow(const Partition& partition, const Graph& parent) {
  const size_t n = partition.subgraphs.size();
  TaskGraph g;
  g.rank.assign(n, 0);
  g.num_deps.assign(n, 0);
  g.input_bytes.assign(n, 0);
  g.output_bytes.assign(n, 0);

  // Ties break by (phase, id): the executor's FIFO order.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return partition.subgraphs[static_cast<size_t>(a)].phase <
           partition.subgraphs[static_cast<size_t>(b)].phase;
  });
  for (size_t k = 0; k < n; ++k) g.rank[static_cast<size_t>(order[k])] = static_cast<int>(k);

  // Boundary inputs aggregated by producer subgraph. Consumers are visited
  // in ascending id, so each producer's consumer list comes out ascending.
  std::vector<std::vector<std::pair<int, uint64_t>>> out_edges(n);
  for (const Subgraph& sub : partition.subgraphs) {
    const size_t id = static_cast<size_t>(sub.id);
    std::map<int, uint64_t> by_producer;
    for (const Subgraph::BoundaryInput& b : sub.boundary_inputs) {
      const Node& p = parent.node(b.parent_producer);
      const uint64_t bytes = node_output_bytes(p);
      if (p.is_input()) {
        g.input_bytes[id] += bytes;
        continue;
      }
      const int producer = partition.producer_subgraph(b.parent_producer);
      DUET_CHECK_GE(producer, 0) << "boundary producer not owned by any subgraph";
      by_producer[producer] += bytes;
    }
    g.num_deps[id] = static_cast<int>(by_producer.size());
    for (const auto& [producer, bytes] : by_producer) {
      out_edges[static_cast<size_t>(producer)].push_back({sub.id, bytes});
    }
  }
  g.consumer_begin.push_back(0);
  for (const auto& edges : out_edges) {
    for (const auto& [consumer, bytes] : edges) {
      g.consumers.push_back(consumer);
      g.edge_bytes.push_back(bytes);
    }
    g.consumer_begin.push_back(static_cast<int>(g.consumers.size()));
  }

  // Parent outputs, summed per owning subgraph; owners charge in the order
  // their first output appears.
  std::vector<int> owners;
  for (NodeId out : parent.outputs()) {
    const int owner = partition.producer_subgraph(out);
    DUET_CHECK_GE(owner, 0) << "parent output not owned by any subgraph";
    if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
      owners.push_back(owner);
    }
    g.output_bytes[static_cast<size_t>(owner)] += node_output_bytes(parent.node(out));
  }
  for (int owner : owners) {
    if (g.output_bytes[static_cast<size_t>(owner)] > 0) g.outputs.push_back(owner);
  }
  return g;
}

}  // namespace duet
