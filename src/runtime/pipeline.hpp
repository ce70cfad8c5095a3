#pragma once

// Throughput-mode (pipelined) execution: streams a window of independent
// queries through one ExecutionPlan. Different queries' subgraphs interleave
// freely on the two devices — while the GPU runs query q's CNN, the CPU can
// run query q+1's RNN — so sustained throughput is bounded by the busiest
// device, not by the end-to-end latency. This extends the paper's
// latency-oriented engine to the batch/offline serving regime; the same
// placement produced by the greedy-correction scheduler is reused. The
// window runs on the shared list scheduler over `num_queries` copies of the
// plan's task graph, so a one-query window is SimExecutor's schedule.

#include "runtime/executor.hpp"

namespace duet {

class PipelinedRunner {
 public:
  explicit PipelinedRunner(DevicePair& devices,
                           const LaneConfig& lanes = LaneConfig::single())
      : devices_(devices), lanes_(lanes) {}

  struct ThroughputResult {
    int queries = 0;
    double makespan_s = 0.0;         // first arrival to last completion
    double throughput_qps = 0.0;     // queries / makespan
    double mean_latency_s = 0.0;     // mean per-query completion time
    double bottleneck_busy_s = 0.0;  // busiest device's busy time / query
    std::vector<double> query_latency_s;
  };

  // Simulates `num_queries` back-to-back queries (all arrive at t=0).
  // Timing-only: numeric execution of a pipelined window is identical per
  // query to SimExecutor::run and is validated there.
  ThroughputResult run(const ExecutionPlan& plan, int num_queries,
                       bool with_noise = false);

 private:
  DevicePair& devices_;
  LaneConfig lanes_;
};

}  // namespace duet
