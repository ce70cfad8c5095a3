#pragma once

// The one list scheduler behind every modeled latency in the repo. The
// correction step of Algorithm 1 measures a placement with it
// (LatencyEvaluator::evaluate), the simulated executor runs a plan on it
// (SimExecutor), and the throughput runner streams a window of queries
// through it (PipelinedRunner). The policy is the executor's (paper §IV-D):
//
//   * a task is ready once every producer has finished, plus the link
//     transfer for each producer on the other device, plus the h2d of its
//     host-resident inputs when it runs off the host;
//   * each device runs one task per lane (LaneConfig; footnote-2 streams);
//   * the next task is the one with the earliest feasible start,
//     max(ready, device's earliest lane), ties broken by the task's rank;
//   * a task owning user-facing outputs off the host pays one d2h for their
//     summed bytes, and the makespan is the last completion.
//
// Costs come from the caller, as plain callables, so evaluate() makes no
// virtual call per event. The core calls them at fixed points and in a
// fixed order, which is what keeps every noisy (RNG-drawing) caller's
// sequence stable: `device` and host-input transfers at init in task order,
// `exec` at pick, edge transfers at release in consumer order, output
// transfers at the tail in `TaskGraph::outputs` order.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "compiler/cost_model.hpp"
#include "partition/partitioner.hpp"

namespace duet {

// Intra-device concurrency (paper footnote 2: "it is possible to further
// improve the performance by allowing multiple subgraphs to execute
// concurrently within one device"). lanes[d] > 1 models CUDA streams /
// split CPU core pools; the default (1, 1) is the paper's configuration.
struct LaneConfig {
  int lanes[kNumDeviceKinds] = {1, 1};

  int of(DeviceKind kind) const { return lanes[static_cast<int>(kind)]; }
  static LaneConfig single() { return {}; }
  static LaneConfig gpu_streams(int streams) {
    LaneConfig c;
    c.lanes[static_cast<int>(DeviceKind::kGpu)] = streams;
    return c;
  }
};

// Placement-independent dataflow of a task DAG, with every transfer size
// the policy charges computed once. Consumer lists are CSR-packed.
struct TaskGraph {
  std::vector<int> rank;            // tie-break order, a permutation of [0, size())
  std::vector<int> num_deps;        // distinct producer tasks per task
  std::vector<int> consumer_begin;  // size() + 1 offsets into `consumers`
  std::vector<int> consumers;       // per task, ascending task id
  std::vector<uint64_t> edge_bytes;    // aligned with `consumers`
  std::vector<uint64_t> input_bytes;   // host-resident inputs per task
  std::vector<uint64_t> output_bytes;  // user-facing outputs per task
  std::vector<int> outputs;  // tasks with output bytes, in charge order

  size_t size() const { return rank.size(); }

  // `copies` independent instances back to back: task c * size() + t is
  // instance c of task t, ranked by (c, rank[t]).
  TaskGraph repeated(int copies) const;
};

// The subgraph dataflow of a partition: rank by (phase, id); edge bytes
// summed per (producer, consumer) pair; output owners in first-appearance
// order of parent.outputs().
TaskGraph subgraph_flow(const Partition& partition, const Graph& parent);

enum class TransferKind { kHostInput, kEdge, kOutput };

// Runs the list scheduler and returns the makespan.
//   device(task) -> DeviceKind
//   exec(task, device, ready, start) -> duration
//   transfer(kind, task, to, bytes, at) -> duration; `task` is the consumer
//     for kHostInput, the producer for kEdge and the owner for kOutput, and
//     `to` the device the bytes move to.
// `completion`, when given, receives each task's finish time, plus its d2h
// for output tasks off the host.
template <typename DeviceFn, typename ExecFn, typename TransferFn>
double list_schedule(const TaskGraph& graph, const LaneConfig& lanes,
                     DeviceFn&& device, ExecFn&& exec, TransferFn&& transfer,
                     std::vector<double>* completion = nullptr) {
  const size_t n = graph.size();
  std::vector<double> ready(n, 0.0);
  std::vector<double> finish(n, 0.0);
  std::vector<int> pending(graph.num_deps);
  std::vector<int> dev_of(n, 0);

  // One free-time entry per lane; the top is the device's earliest lane.
  // Lane times only grow, which is what makes the lazy deferred→eager
  // migration below sound.
  using MinHeapD = std::priority_queue<double, std::vector<double>, std::greater<>>;
  MinHeapD lane_free[kNumDeviceKinds];
  for (int d = 0; d < kNumDeviceKinds; ++d) {
    for (int l = 0; l < std::max(1, lanes.lanes[d]); ++l) lane_free[d].push(0.0);
  }

  // Two ready-queues per device. An "eager" task has ready <= the device's
  // earliest lane: its feasible start is the lane time, so ordering within
  // the queue is purely by rank. A "deferred" task has ready > lane: its
  // feasible start is its own ready, so it is keyed (ready, rank) and
  // migrates to eager once the lane time catches up. The lexicographic
  // minimum over both devices' queue heads is the min-(start, rank) task.
  using EagerKey = std::pair<int, int>;              // (rank, task)
  using DeferredKey = std::tuple<double, int, int>;  // (ready, rank, task)
  std::priority_queue<EagerKey, std::vector<EagerKey>, std::greater<>>
      eager[kNumDeviceKinds];
  std::priority_queue<DeferredKey, std::vector<DeferredKey>, std::greater<>>
      deferred[kNumDeviceKinds];

  const auto enqueue = [&](int t) {
    const size_t ut = static_cast<size_t>(t);
    const int d = dev_of[ut];
    if (ready[ut] <= lane_free[d].top()) {
      eager[d].push({graph.rank[ut], t});
    } else {
      deferred[d].push({ready[ut], graph.rank[ut], t});
    }
  };

  for (size_t i = 0; i < n; ++i) {
    const DeviceKind dev = device(static_cast<int>(i));
    dev_of[i] = static_cast<int>(dev);
    // Host inputs must cross the link before an off-host task can start.
    if (dev != DeviceKind::kCpu && graph.input_bytes[i] > 0) {
      ready[i] = transfer(TransferKind::kHostInput, static_cast<int>(i), dev,
                          graph.input_bytes[i], 0.0);
    }
    if (pending[i] == 0) enqueue(static_cast<int>(i));
  }

  for (size_t completed = 0; completed < n; ++completed) {
    int best = -1;
    int best_dev = -1;
    int best_rank = 0;
    bool best_eager = false;
    double best_start = std::numeric_limits<double>::infinity();
    for (int d = 0; d < kNumDeviceKinds; ++d) {
      // Lane time grew since these were deferred? They are eager now.
      while (!deferred[d].empty() &&
             std::get<0>(deferred[d].top()) <= lane_free[d].top()) {
        const DeferredKey k = deferred[d].top();
        deferred[d].pop();
        eager[d].push({std::get<1>(k), std::get<2>(k)});
      }
      double start = 0.0;
      int rank = 0;
      int id = -1;
      bool from_eager = false;
      if (!eager[d].empty()) {
        start = lane_free[d].top();
        std::tie(rank, id) = eager[d].top();
        from_eager = true;
      } else if (!deferred[d].empty()) {
        std::tie(start, rank, id) = deferred[d].top();
      } else {
        continue;
      }
      if (best < 0 || start < best_start ||
          (start == best_start && rank < best_rank)) {
        best = id;
        best_dev = d;
        best_rank = rank;
        best_start = start;
        best_eager = from_eager;
      }
    }
    DUET_CHECK_GE(best, 0) << "deadlock: no runnable task (cyclic dependencies?)";
    if (best_eager) {
      eager[best_dev].pop();
    } else {
      deferred[best_dev].pop();
    }

    const size_t i = static_cast<size_t>(best);
    const double end =
        best_start + exec(best, static_cast<DeviceKind>(best_dev), ready[i], best_start);
    finish[i] = end;
    lane_free[best_dev].pop();
    lane_free[best_dev].push(end);

    // Release consumers in ascending order; cross-device edges pay the link.
    const int first = graph.consumer_begin[i];
    const int last = graph.consumer_begin[i + 1];
    for (int e = first; e < last; ++e) {
      const int c = graph.consumers[static_cast<size_t>(e)];
      const size_t j = static_cast<size_t>(c);
      double avail = end;
      if (dev_of[j] != best_dev) {
        avail += transfer(TransferKind::kEdge, best, static_cast<DeviceKind>(dev_of[j]),
                          graph.edge_bytes[static_cast<size_t>(e)], end);
      }
      ready[j] = std::max(ready[j], avail);
      if (--pending[j] == 0) enqueue(c);
    }
  }

  // User-facing results produced off the host come back to it.
  for (int o : graph.outputs) {
    const size_t uo = static_cast<size_t>(o);
    if (dev_of[uo] == static_cast<int>(DeviceKind::kCpu)) continue;
    finish[uo] += transfer(TransferKind::kOutput, o, DeviceKind::kCpu,
                           graph.output_bytes[uo], finish[uo]);
  }
  double makespan = 0.0;
  for (double t : finish) makespan = std::max(makespan, t);
  if (completion != nullptr) *completion = std::move(finish);
  return makespan;
}

}  // namespace duet
