#include "serve/admission.hpp"

namespace duet::serve {

std::vector<TenantClass> default_tenant_classes(int count,
                                                double deadline_s) {
  static const char* kNames[] = {"gold", "silver", "bronze"};
  std::vector<TenantClass> tenants;
  for (int i = 0; i < count; ++i) {
    TenantClass t;
    // Past the named palette, extra classes reuse the bronze label with a
    // letter suffix (still bounded, still non-numeric).
    t.name = i < 3 ? kNames[i]
                   : std::string("bronze-") + static_cast<char>('a' + i - 3);
    t.weight = i < 3 ? static_cast<double>(4 >> i) : 1.0;
    t.deadline_s = deadline_s;
    tenants.push_back(std::move(t));
  }
  return tenants;
}

AdmissionCounters::Snapshot AdmissionCounters::snapshot() const {
  Snapshot s;
  s.offered = offered.load(std::memory_order_relaxed);
  s.accepted = accepted.load(std::memory_order_relaxed);
  s.rejected = rejected.load(std::memory_order_relaxed);
  s.shed = shed.load(std::memory_order_relaxed);
  s.completed = completed.load(std::memory_order_relaxed);
  s.completed_late = completed_late.load(std::memory_order_relaxed);
  return s;
}

}  // namespace duet::serve
