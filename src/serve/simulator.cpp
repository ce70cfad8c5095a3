#include "serve/simulator.hpp"

#include <algorithm>
#include <limits>
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
  const std::vector<TenantClass> tenants =
      config.tenants.empty() ? std::vector<TenantClass>{TenantClass{}}
                             : config.tenants;

  FleetQueue queue(tenants, config.queue_capacity);
  std::vector<AdmissionCounters> counters(tenants.size());
  LatencyRecorder sojourn;
  LatencyRecorder queue_wait;

  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < config.workers; ++w) free_at.push(0.0);

  double last_completion = 0.0;
  double busy_s = 0.0;
  size_t max_depth = 0;
  uint64_t batches = 0;
  uint64_t coalesced = 0;
  uint64_t served = 0;

  // Admits trace entry `index`; its id is the index, so ids ascend in
  // arrival order and service callbacks can key per-request draws on them.
  const auto admit = [&](size_t index) {
    const FleetSimRequest& r = requests[index];
    DUET_CHECK_GE(r.tenant, 0);
    DUET_CHECK_LT(static_cast<size_t>(r.tenant), tenants.size());
    AdmissionCounters& c = counters[r.tenant];
    c.offered.fetch_add(1, std::memory_order_relaxed);
    FleetRequest fr;
    fr.id = index;
    fr.tenant = r.tenant;
    fr.model = r.model;
    fr.arrival_s = r.arrival_s;
    const double rel = tenants[r.tenant].deadline_s;
    fr.deadline_s = rel > 0.0 ? r.arrival_s + rel : 0.0;
    if (!queue.push(fr)) {
      c.rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    c.accepted.fetch_add(1, std::memory_order_relaxed);
    max_depth = std::max(max_depth, queue.size());
  };

  size_t i = 0;  // next trace entry to arrive
  while (i < requests.size() || !queue.empty()) {
    if (queue.empty()) {
      admit(i++);
      continue;
    }
    const double free_t = free_at.top();
    const double t_pick = std::max(free_t, queue.earliest_arrival());
    // Every arrival up to the pickup instant is in the queue before the
    // policy chooses — picks never see a partial present.
    if (i < requests.size() && requests[i].arrival_s <= t_pick) {
      admit(i++);
      continue;
    }

    PickResult picked = queue.pick(t_pick, config.max_batch);
    for (const FleetRequest& r : picked.shed) {
      counters[r.tenant].shed.fetch_add(1, std::memory_order_relaxed);
    }
    if (picked.batch.empty()) continue;

    const int64_t batch = static_cast<int64_t>(picked.batch.size());
    const double service = service_s(picked.batch);
    const double completion = t_pick + service;
    free_at.pop();
    free_at.push(completion);
    busy_s += service;
    last_completion = std::max(last_completion, completion);
    ++batches;
    served += static_cast<uint64_t>(batch);
    if (batch > 1) coalesced += static_cast<uint64_t>(batch);
    for (const FleetRequest& r : picked.batch) {
      queue.charge(r.tenant, service / static_cast<double>(batch));
      queue_wait.add(t_pick - r.arrival_s);
      sojourn.add(completion - r.arrival_s);
      AdmissionCounters& c = counters[r.tenant];
      c.completed.fetch_add(1, std::memory_order_relaxed);
      if (r.deadline_s > 0.0 && completion > r.deadline_s) {
        c.completed_late.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  FleetSimStats stats;
  AdmissionCounters total;
  for (size_t t = 0; t < tenants.size(); ++t) {
    FleetTenantStats ts;
    ts.name = tenants[t].name;
    ts.admission = counters[t].snapshot();
    total.offered += ts.admission.offered;
    total.accepted += ts.admission.accepted;
    total.rejected += ts.admission.rejected;
    total.shed += ts.admission.shed;
    total.completed += ts.admission.completed;
    total.completed_late += ts.admission.completed_late;
    stats.tenants.push_back(std::move(ts));
  }
  stats.total = total.snapshot();
  const double t0 = requests.empty() ? 0.0 : requests.front().arrival_s;
  stats.makespan_s = std::max(last_completion - t0, 0.0);
  stats.throughput_qps =
      stats.makespan_s > 0.0
          ? static_cast<double>(stats.total.completed) / stats.makespan_s
          : 0.0;
  stats.sojourn = sojourn.summarize();
  stats.queue_wait = queue_wait.summarize();
  stats.worker_busy_frac =
      stats.makespan_s > 0.0
          ? busy_s / (static_cast<double>(config.workers) * stats.makespan_s)
          : 0.0;
  stats.max_queue_depth = max_depth;
  stats.batches = batches;
  stats.coalesced_requests = coalesced;
  stats.mean_batch =
      batches > 0 ? static_cast<double>(served) / static_cast<double>(batches)
                  : 0.0;
  return stats;
}

}  // namespace duet::serve
