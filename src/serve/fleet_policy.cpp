#include "serve/fleet_policy.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace duet::serve {

FleetQueue::FleetQueue(std::vector<TenantClass> tenants,
                       size_t queue_capacity)
    : tenants_(std::move(tenants)), capacity_(queue_capacity) {
  DUET_CHECK(!tenants_.empty()) << "fleet queue needs at least one tenant";
  for (const TenantClass& t : tenants_) {
    DUET_CHECK_GT(t.weight, 0.0) << "tenant weight must be positive";
  }
  queues_.resize(tenants_.size());
  vtime_.assign(tenants_.size(), 0.0);
}

bool FleetQueue::edf_before(const FleetRequest& a, const FleetRequest& b) {
  const double da =
      a.deadline_s > 0.0 ? a.deadline_s : std::numeric_limits<double>::max();
  const double db =
      b.deadline_s > 0.0 ? b.deadline_s : std::numeric_limits<double>::max();
  if (da != db) return da < db;
  return a.id < b.id;
}

bool FleetQueue::push(const FleetRequest& request) {
  DUET_CHECK_GE(request.tenant, 0);
  DUET_CHECK_LT(static_cast<size_t>(request.tenant), tenants_.size());
  if (size_ >= capacity_) return false;
  std::deque<FleetRequest>& q = queues_[request.tenant];
  if (q.empty()) {
    // Idle -> backlogged: forfeit banked credit (start-time fair queueing).
    vtime_[request.tenant] = std::max(vtime_[request.tenant], virtual_now_);
  }
  q.insert(std::upper_bound(q.begin(), q.end(), request, edf_before), request);
  ++size_;
  return true;
}

PickResult FleetQueue::pick(double now_s, int64_t max_batch) {
  DUET_CHECK_GE(max_batch, 1);
  PickResult result;

  // WFQ head: pop the min-vtime tenant's EDF head, shedding expired
  // requests until one is runnable (or the queue drains).
  FleetRequest head;
  bool have_head = false;
  while (!have_head && size_ > 0) {
    int best = -1;
    for (size_t t = 0; t < queues_.size(); ++t) {
      if (queues_[t].empty()) continue;
      if (best < 0 || vtime_[t] < vtime_[best]) best = static_cast<int>(t);
    }
    std::deque<FleetRequest>& q = queues_[best];
    const FleetRequest r = q.front();
    q.pop_front();
    --size_;
    if (r.deadline_s > 0.0 && now_s > r.deadline_s) {
      result.shed.push_back(r);
    } else {
      head = r;
      have_head = true;
    }
  }
  if (!have_head) return result;

  virtual_now_ = vtime_[head.tenant];
  result.batch.push_back(head);

  // Coalesce: same-model requests in global EDF order across all tenants.
  while (static_cast<int64_t>(result.batch.size()) < max_batch) {
    int best_t = -1;
    size_t best_i = 0;
    for (size_t t = 0; t < queues_.size(); ++t) {
      // EDF-sorted queues: the first same-model entry is the tenant's best.
      for (size_t i = 0; i < queues_[t].size(); ++i) {
        if (queues_[t][i].model != head.model) continue;
        if (best_t < 0 ||
            edf_before(queues_[t][i], queues_[best_t][best_i])) {
          best_t = static_cast<int>(t);
          best_i = i;
        }
        break;
      }
    }
    if (best_t < 0) break;
    const FleetRequest r = queues_[best_t][best_i];
    queues_[best_t].erase(queues_[best_t].begin() +
                          static_cast<std::ptrdiff_t>(best_i));
    --size_;
    if (r.deadline_s > 0.0 && now_s > r.deadline_s) {
      result.shed.push_back(r);
    } else {
      result.batch.push_back(r);
    }
  }

  // Keep EDF order within the batch (the head was WFQ-chosen, so it may
  // have a later deadline than a coalesced member from another tenant).
  std::sort(result.batch.begin(), result.batch.end(), edf_before);
  return result;
}

void FleetQueue::charge(int tenant, double share_s) {
  DUET_CHECK_GE(tenant, 0);
  DUET_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  vtime_[tenant] += share_s / tenants_[tenant].weight;
  virtual_now_ = std::max(virtual_now_, vtime_[tenant]);
}

double FleetQueue::earliest_arrival() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const std::deque<FleetRequest>& q : queues_) {
    for (const FleetRequest& r : q) {
      earliest = std::min(earliest, r.arrival_s);
    }
  }
  return earliest;
}

void FleetQueue::append_state(std::string* out) const {
  // FleetRequest is 8 + 4 + 4 + 8 + 8 bytes: no padding.
  const auto put = [out](const auto& v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (size_t t = 0; t < queues_.size(); ++t) {
    put(queues_[t].size());
    for (const FleetRequest& r : queues_[t]) put(r);
    put(vtime_[t]);
  }
  put(virtual_now_);
}

}  // namespace duet::serve
