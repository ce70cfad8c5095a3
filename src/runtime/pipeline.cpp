#include "runtime/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "device/calibration.hpp"
#include "device/interconnect.hpp"

namespace duet {

PipelinedRunner::ThroughputResult PipelinedRunner::run(const ExecutionPlan& plan,
                                                       int num_queries,
                                                       bool with_noise) {
  DUET_CHECK_GT(num_queries, 0);
  const size_t n = plan.subgraphs().size();
  const double dispatch = executor_dispatch_overhead();

  // Task q * n + s is query q's subgraph s, ranked (query, phase, id): ties
  // prefer the older query (FIFO fairness).
  std::vector<double> completion;
  list_schedule(
      plan.flow().repeated(num_queries), lanes_,
      [&](int t) { return plan.subgraphs()[static_cast<size_t>(t) % n].device; },
      [&](int t, DeviceKind device, double, double) {
        return devices_.device(device).modeled_time(
                   plan.subgraphs()[static_cast<size_t>(t) % n].compiled,
                   with_noise) +
               dispatch;
      },
      [&](TransferKind, int, DeviceKind, uint64_t bytes, double) {
        return devices_.link->transfer_time(bytes, with_noise);
      },
      &completion);

  // Per-query completion: its last subgraph finish (or d2h of a GPU-owned
  // user output).
  ThroughputResult r;
  r.queries = num_queries;
  for (int q = 0; q < num_queries; ++q) {
    const auto first = completion.begin() + static_cast<std::ptrdiff_t>(q * n);
    const double latest =
        *std::max_element(first, first + static_cast<std::ptrdiff_t>(n));
    r.query_latency_s.push_back(latest);
    r.makespan_s = std::max(r.makespan_s, latest);
    r.mean_latency_s += latest / num_queries;
  }
  r.throughput_qps = num_queries / r.makespan_s;

  // Bottleneck: busiest device's busy time per query.
  double busy[kNumDeviceKinds] = {0.0, 0.0};
  for (const PlannedSubgraph& ps : plan.subgraphs()) {
    busy[static_cast<int>(ps.device)] +=
        ps.compiled.est_total_time_s() + dispatch;
  }
  r.bottleneck_busy_s = std::max(busy[0], busy[1]);
  return r;
}

}  // namespace duet
