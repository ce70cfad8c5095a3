#pragma once

// Virtual-time twin of FleetServer (fleet.hpp): a deterministic
// multi-worker queue over the sim device pair. Each worker is an
// independent engine replica, service time is the plan's modeled makespan,
// and arrivals come from an open-loop trace (workload.hpp) — so throughput,
// tail sojourn, shed rate and reject rate under any offered load are
// exact, reproducible numbers, the same way every benchmark in this repo
// reports modeled time rather than the wall clock of the build machine.
//
// The event loop drives FleetServer's request lifecycle verbatim
// (Lifecycle, lifecycle.hpp, over the FleetQueue policy of
// fleet_policy.hpp): weighted fair queueing across tenants, EDF within,
// same-model coalescing up to max_batch, reject-on-full,
// shed-on-deadline-miss, and the same admission counters and batch
// tallies. Simulated executions never fail. A single-model server is the
// degenerate configuration — one tenant, max_batch 1 — where EDF under a
// uniform relative deadline is FIFO. Service time is per execution, which is what
// makes the plan-per-bucket efficacy CI gate machine-independent: feed it
// ResidentModel::modeled_service_s for the bucketed run and
// baseline_service_s for the single-plan baseline and compare.

#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "serve/lifecycle.hpp"

namespace duet::serve {

struct FleetSimRequest {
  double arrival_s = 0.0;  // ascending across the trace
  int tenant = 0;
  int model = 0;
};

// The trace a single-model server sees: every arrival for model 0 from
// tenant 0.
std::vector<FleetSimRequest> single_model_requests(
    const std::vector<double>& arrivals);

struct FleetSimConfig {
  int workers = 1;
  size_t queue_capacity = 128;
  // Tenant classes (weights + per-class relative deadlines). Empty = one
  // default tenant, no deadline.
  std::vector<TenantClass> tenants;
  int64_t max_batch = 8;
};

struct FleetSimStats {
  // Per-tenant conservation holds classwise:
  // offered = completed + shed + rejected + failed (failed is always 0).
  std::vector<FleetTenantStats> tenants;
  AdmissionCounters total;
  double makespan_s = 0.0;
  double throughput_qps = 0.0;
  SummaryStats sojourn;
  SummaryStats queue_wait;
  double worker_busy_frac = 0.0;
  size_t max_queue_depth = 0;
  uint64_t batches = 0;             // executions launched
  uint64_t coalesced_requests = 0;  // requests served in batches of > 1
  double mean_batch = 0.0;          // completed requests / batches
};

// Modeled service time of one execution. `batch` holds the coalesced
// requests (one model, EDF order); each member's FleetRequest::id is its
// index in the simulated trace, so callers can replay per-request draws (a
// noisy latency sample per request) as well as per-(model, batch) costs.
// The simulator itself is RNG-free.
using FleetServiceFn =
    std::function<double(const std::vector<FleetRequest>& batch)>;

FleetSimStats simulate_fleet(const std::vector<FleetSimRequest>& requests,
                             const FleetServiceFn& service_s,
                             const FleetSimConfig& config);

}  // namespace duet::serve
