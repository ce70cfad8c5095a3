#pragma once

// The multi-tenant pickup policy (ISSUE 10): weighted fair queueing across
// tenant classes, earliest-deadline-first within each tenant, and same-model
// request coalescing — one deterministic data structure, owned by the
// request lifecycle (serve/lifecycle.hpp) that the real-threaded
// FleetServer, the virtual-time fleet simulator and the model checker all
// drive. It is also the single source of the admission policies
// (admission.hpp): reject-on-full in push(), shed-on-deadline-miss in
// pick().
//
// WFQ: each tenant carries a virtual finish time. A pickup chooses the
// backlogged tenant with the smallest virtual time (ties break on the
// smaller tenant index), and after execution every served request bills its
// own tenant `service_share / weight` via charge() — so over a contended
// interval tenants receive throughput proportional to their weights, even
// when a coalesced batch mixes tenants. A tenant going from idle to
// backlogged snaps its virtual time forward to the policy's current virtual
// now, so sleeping never banks credit (standard start-time fair queueing).
//
// EDF within a tenant keeps the deadline-shedding story coherent: the
// request picked first is the one that will be shed first if the backlog is
// hopeless. No-deadline requests order after every deadlined one, FIFO among
// themselves.
//
// Coalescing: the WFQ+EDF head fixes the model; the batch then fills with
// up to max_batch same-model requests in global EDF order across every
// tenant (cross-tenant coalescing is what makes batching pay at fleet
// scale — each member still bills its own tenant). Requests whose deadline
// already expired are shed as they are encountered, never executed.
//
// The structure itself is not thread-safe: the server serializes access
// under its queue mutex; the simulator and the checker are single-threaded.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/admission.hpp"

namespace duet::serve {

// Policy-visible view of a queued request. The server keeps feeds/promises
// aside keyed by `id`; the simulator needs nothing else.
struct FleetRequest {
  uint64_t id = 0;        // submission order; the final tie-break
  int tenant = 0;
  int model = 0;          // ModelRegistry index
  double arrival_s = 0.0;
  double deadline_s = 0.0;  // absolute; <= 0 = no deadline
};

struct PickResult {
  // Same model, global EDF order; empty when only expired requests were
  // queued (everything picked went to `shed`).
  std::vector<FleetRequest> batch;
  std::vector<FleetRequest> shed;  // deadline expired before pickup
};

class FleetQueue {
 public:
  explicit FleetQueue(std::vector<TenantClass> tenants,
                      size_t queue_capacity);

  const std::vector<TenantClass>& tenants() const { return tenants_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Arrival decision + enqueue: false = queue full, the caller rejects.
  bool push(const FleetRequest& request);

  // One pickup at time `now_s`: WFQ tenant choice, EDF head, coalesce up to
  // `max_batch`. Expired requests encountered on the way are shed. Returns
  // empty batch AND empty shed only when the queue is empty.
  PickResult pick(double now_s, int64_t max_batch);

  // Bills `share_s` seconds of service to `tenant` (divided by its weight).
  // Callers charge service_s / batch_size per served request.
  void charge(int tenant, double share_s);

  // Earliest arrival among queued requests (simulator event horizon);
  // infinity when empty.
  double earliest_arrival() const;

  // Canonical bytes of the queue's contents and WFQ clocks (Lifecycle::
  // append_state).
  void append_state(std::string* out) const;

 private:
  // Ordered EDF position for `request` in tenant queue `q` (deadline, then
  // id — no-deadline requests sort last).
  static bool edf_before(const FleetRequest& a, const FleetRequest& b);

  std::vector<TenantClass> tenants_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  // Per-tenant backlog, kept EDF-sorted on insert (queues are small — at
  // most `capacity` across all tenants — so ordered insert beats a heap on
  // clarity and is just as deterministic).
  std::vector<std::deque<FleetRequest>> queues_;
  std::vector<double> vtime_;
  double virtual_now_ = 0.0;
};

}  // namespace duet::serve
