#include "serve/lifecycle.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace duet::serve {

double BatchTallies::mean_batch() const {
  return batches > 0 ? static_cast<double>(served) /
                           static_cast<double>(batches)
                     : 0.0;
}

Lifecycle::Lifecycle(std::vector<TenantClass> tenants, size_t queue_capacity)
    : queue_(tenants.empty() ? std::vector<TenantClass>{TenantClass{}}
                             : std::move(tenants),
             queue_capacity),
      counters_(queue_.tenants().size()) {}

FleetRequest Lifecycle::request(uint64_t id, int tenant, int model,
                                double arrival_s, double deadline_s) const {
  DUET_CHECK_GE(tenant, 0);
  DUET_CHECK_LT(static_cast<size_t>(tenant), tenants().size());
  const double rel = deadline_s < 0.0 ? tenants()[tenant].deadline_s
                                      : deadline_s;
  FleetRequest r;
  r.id = id;
  r.tenant = tenant;
  r.model = model;
  r.arrival_s = arrival_s;
  r.deadline_s = rel > 0.0 ? arrival_s + rel : 0.0;
  return r;
}

bool Lifecycle::on_arrival(const FleetRequest& request) {
  AdmissionCounters& c = counters_[request.tenant];
  ++c.offered;
  if (draining_ || !queue_.push(request)) {
    ++c.rejected;
    return false;
  }
  ++c.accepted;
  ++inflight_;
  tallies_.max_queue_depth = std::max(tallies_.max_queue_depth, queue_.size());
  return true;
}

PickResult Lifecycle::on_pick(double now_s, int64_t max_batch) {
  PickResult picked = queue_.pick(now_s, max_batch);
  for (const FleetRequest& r : picked.shed) ++counters_[r.tenant].shed;
  return picked;
}

void Lifecycle::on_complete(const std::vector<FleetRequest>& batch,
                            RequestStatus outcome, double service_s,
                            double pickup_s, double done_s) {
  if (outcome == RequestStatus::kFailed) {
    for (const FleetRequest& r : batch) ++counters_[r.tenant].failed;
    return;
  }
  DUET_CHECK(outcome == RequestStatus::kOk) << "a batch completes or fails";
  const uint64_t n = batch.size();
  ++tallies_.batches;
  tallies_.served += n;
  if (n > 1) tallies_.coalesced += n;
  ++tallies_.histogram[static_cast<int64_t>(n)];
  for (const FleetRequest& r : batch) {
    queue_.charge(r.tenant, service_s / static_cast<double>(n));
    tallies_.queue_wait.add(pickup_s - r.arrival_s);
    AdmissionCounters& c = counters_[r.tenant];
    ++c.completed;
    if (late(r, done_s)) ++c.completed_late;
  }
}

void Lifecycle::on_resolve() {
  DUET_CHECK_GT(inflight_, 0u) << "resolve without an accepted request";
  --inflight_;
}

std::vector<FleetTenantStats> Lifecycle::tenant_stats() const {
  std::vector<FleetTenantStats> out;
  for (size_t t = 0; t < counters_.size(); ++t) {
    out.push_back({tenants()[t].name, counters_[t]});
  }
  return out;
}

AdmissionCounters Lifecycle::total() const {
  AdmissionCounters sum;
  for (const AdmissionCounters& c : counters_) sum += c;
  return sum;
}

void Lifecycle::append_state(std::string* out) const {
  queue_.append_state(out);
  // AdmissionCounters is all uint64_t, so its bytes have no padding.
  out->append(reinterpret_cast<const char*>(counters_.data()),
              counters_.size() * sizeof(AdmissionCounters));
  out->append(reinterpret_cast<const char*>(&inflight_), sizeof(inflight_));
  out->push_back(draining_ ? 1 : 0);
}

}  // namespace duet::serve
