#pragma once

// The heterogeneous execution engine (paper §IV-D, Fig. 9), in two flavors
// sharing one semantics:
//
//   * SimExecutor   — discrete-event simulation on virtual clocks, run on
//     the shared list scheduler (sched/list_scheduler.hpp) the latency
//     evaluator uses; kernels still execute numerically, in pick order, but
//     elapsed time comes from the calibrated device models (deterministic or
//     noisy). All benchmarks use this.
//   * ThreadedExecutor — two real worker threads ("child processes" in the
//     paper; threads here since they share an address space), each polling
//     its own synchronization queue, executing subgraphs, and triggering
//     dependents. Measures wall-clock time. Tests use it to show the
//     concurrency machinery computes exactly what a single device computes.

#include <map>

#include "runtime/plan.hpp"
#include "runtime/timeline.hpp"
#include "sched/latency_model.hpp"

namespace duet {

struct ExecutionResult {
  std::vector<Tensor> outputs;  // parent graph output order
  double latency_s = 0.0;       // modeled (Sim) or wall-clock (Threaded)
  Timeline timeline;
};

class SimExecutor {
 public:
  explicit SimExecutor(DevicePair& devices,
                       const LaneConfig& lanes = LaneConfig::single())
      : devices_(devices), lanes_(lanes) {}

  const LaneConfig& lanes() const { return lanes_; }

  // `feeds` maps parent kInput node ids to tensors.
  ExecutionResult run(const ExecutionPlan& plan,
                      const std::map<NodeId, Tensor>& feeds,
                      bool with_noise = false);

  // Time-only fast path: skips numeric kernel execution and the timeline.
  double run_latency_only(const ExecutionPlan& plan, bool with_noise = false);

 private:
  template <bool kNumeric>
  ExecutionResult run_impl(const ExecutionPlan& plan,
                           const std::map<NodeId, Tensor>& feeds, bool with_noise,
                           bool record_timeline);

  DevicePair& devices_;
  LaneConfig lanes_;
};

class ThreadedExecutor {
 public:
  explicit ThreadedExecutor(DevicePair& devices) : devices_(devices) {}

  ExecutionResult run(const ExecutionPlan& plan,
                      const std::map<NodeId, Tensor>& feeds);

 private:
  DevicePair& devices_;
};

}  // namespace duet
