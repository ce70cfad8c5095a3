#include "serve/simulator.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"

namespace duet::serve {

std::vector<FleetSimRequest> single_model_requests(
    const std::vector<double>& arrivals) {
  std::vector<FleetSimRequest> requests(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    requests[i].arrival_s = arrivals[i];
  }
  return requests;
}

FleetSimStats simulate_fleet(const std::vector<FleetSimRequest>& requests,
                             const FleetServiceFn& service_s,
                             const FleetSimConfig& config) {
  DUET_CHECK_GT(config.workers, 0);
  DUET_CHECK_GE(config.max_batch, 1);
  for (size_t i = 1; i < requests.size(); ++i) {
    DUET_CHECK_GE(requests[i].arrival_s, requests[i - 1].arrival_s)
        << "arrivals must be ascending";
  }
  Lifecycle life(config.tenants, config.queue_capacity);
  LatencyRecorder sojourn;

  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < config.workers; ++w) free_at.push(0.0);

  double last_completion = 0.0;
  double busy_s = 0.0;

  size_t i = 0;  // next trace entry to arrive
  while (i < requests.size() || !life.queue().empty()) {
    // Every arrival up to the pickup instant is in the queue before the
    // policy chooses — picks never see a partial present. An empty queue
    // has no pickup instant (earliest_arrival is infinite).
    const double t_pick =
        std::max(free_at.top(), life.queue().earliest_arrival());
    if (i < requests.size() && requests[i].arrival_s <= t_pick) {
      // The request's id is its trace index, so ids ascend in arrival order
      // and service callbacks can key per-request draws on them.
      const FleetSimRequest& r = requests[i];
      life.on_arrival(life.request(i++, r.tenant, r.model, r.arrival_s));
      continue;
    }

    const PickResult picked = life.on_pick(t_pick, config.max_batch);
    for (size_t k = 0; k < picked.shed.size(); ++k) life.on_resolve();
    if (picked.batch.empty()) continue;

    const double service = service_s(picked.batch);
    const double completion = t_pick + service;
    free_at.pop();
    free_at.push(completion);
    busy_s += service;
    last_completion = std::max(last_completion, completion);
    life.on_complete(picked.batch, RequestStatus::kOk, service, t_pick,
                     completion);
    for (const FleetRequest& r : picked.batch) {
      sojourn.add(completion - r.arrival_s);
      life.on_resolve();
    }
  }

  FleetSimStats stats;
  stats.tenants = life.tenant_stats();
  stats.total = life.total();
  const double t0 = requests.empty() ? 0.0 : requests.front().arrival_s;
  stats.makespan_s = std::max(last_completion - t0, 0.0);
  stats.throughput_qps =
      stats.makespan_s > 0.0
          ? static_cast<double>(stats.total.completed) / stats.makespan_s
          : 0.0;
  stats.sojourn = sojourn.summarize();
  const BatchTallies& tallies = life.tallies();
  stats.queue_wait = tallies.queue_wait.summarize();
  stats.worker_busy_frac =
      stats.makespan_s > 0.0
          ? busy_s / (static_cast<double>(config.workers) * stats.makespan_s)
          : 0.0;
  stats.max_queue_depth = tallies.max_queue_depth;
  stats.batches = tallies.batches;
  stats.coalesced_requests = tallies.coalesced;
  stats.mean_batch = tallies.mean_batch();
  return stats;
}

}  // namespace duet::serve
