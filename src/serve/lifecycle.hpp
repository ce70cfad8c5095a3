#pragma once

// The serving request lifecycle: one step function over explicit state,
// with no threads, clocks or telemetry inside (time arrives as arguments).
// FleetServer (fleet.hpp) calls it inside its queue-mutex sections,
// simulate_fleet (simulator.hpp) from its virtual-time event loop, and the
// serve-protocol model checker (analysis/model_check/protocol.hpp) through
// every interleaving of a small scope.
//
//   on_arrival   offered++, then enqueue unless draining or full
//                (accepted++, in flight), else rejected++.
//   on_pick      WFQ + EDF pick with same-model coalescing (FleetQueue);
//                expired requests come back shed (shed++).
//   on_complete  kOk bills each member its share of the service time and
//                counts it completed (late past its deadline); kFailed
//                counts every member failed.
//   on_resolve   a response was delivered: in flight--. Drivers call it
//                after every side effect of the request, so quiescent()
//                during a drain means every effect is visible.
//
// Per tenant, offered = completed + shed + rejected + failed once every
// accepted request has resolved.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "serve/admission.hpp"
#include "serve/fleet_policy.hpp"

namespace duet::serve {

enum class RequestStatus { kOk, kRejected, kShed, kFailed };

struct FleetTenantStats {
  std::string name;
  AdmissionCounters admission;
};

// Executions and their shape, over kOk batches.
struct BatchTallies {
  uint64_t batches = 0;
  uint64_t served = 0;     // requests completed
  uint64_t coalesced = 0;  // requests served in batches of > 1
  std::map<int64_t, uint64_t> histogram;  // executions by batch size
  size_t max_queue_depth = 0;
  LatencyRecorder queue_wait;  // pickup - arrival, per served request

  double mean_batch() const;
};

class Lifecycle {
 public:
  // Empty `tenants` = one default tenant (weight 1, no deadline).
  Lifecycle(std::vector<TenantClass> tenants, size_t queue_capacity);

  const std::vector<TenantClass>& tenants() const { return queue_.tenants(); }
  const FleetQueue& queue() const { return queue_; }

  // The policy-visible request; `deadline_s` is relative, < 0 applies the
  // tenant's default and 0 disables.
  FleetRequest request(uint64_t id, int tenant, int model, double arrival_s,
                       double deadline_s = -1.0) const;
  static bool late(const FleetRequest& request, double done_s) {
    return request.deadline_s > 0.0 && done_s > request.deadline_s;
  }

  // True = queued and in flight; false = refused (already counted).
  bool on_arrival(const FleetRequest& request);
  PickResult on_pick(double now_s, int64_t max_batch);
  void on_complete(const std::vector<FleetRequest>& batch,
                   RequestStatus outcome, double service_s, double pickup_s,
                   double done_s);
  void on_resolve();

  void close() { draining_ = true; }  // drain(): stop admitting
  // A worker's wait predicate; woken to an empty queue, it exits.
  bool wake() const { return draining_ || !queue_.empty(); }
  // drain()'s wait predicate: nothing accepted is unresolved.
  bool quiescent() const { return inflight_ == 0; }
  uint64_t inflight() const { return inflight_; }

  std::vector<FleetTenantStats> tenant_stats() const;
  AdmissionCounters total() const;
  const BatchTallies& tallies() const { return tallies_; }

  // Canonical bytes of all that decides later steps and conservation (not
  // the tallies): the model checker's visited-state key.
  void append_state(std::string* out) const;

 private:
  FleetQueue queue_;
  std::vector<AdmissionCounters> counters_;  // index = tenant class
  BatchTallies tallies_;
  uint64_t inflight_ = 0;
  bool draining_ = false;
};

}  // namespace duet::serve
