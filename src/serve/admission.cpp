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

AdmissionCounters& AdmissionCounters::operator+=(const AdmissionCounters& o) {
  offered += o.offered;
  accepted += o.accepted;
  rejected += o.rejected;
  shed += o.shed;
  completed += o.completed;
  completed_late += o.completed_late;
  failed += o.failed;
  return *this;
}

}  // namespace duet::serve
