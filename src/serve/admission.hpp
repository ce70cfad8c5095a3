#pragma once

// Admission accounting for the serving runtime. Every driver of the
// request lifecycle (lifecycle.hpp: FleetServer, simulate_fleet and the
// serve-protocol model checker) applies the same two policies, implemented
// once in FleetQueue (fleet_policy.hpp) and counted once in Lifecycle:
//
//   * reject-on-full      — an arrival finding the bounded queue at
//     capacity is refused immediately. Open-loop traffic cannot be made to
//     wait; an unbounded backlog just converts overload into unbounded
//     latency for everyone (the classic serving-system failure mode).
//   * shed-on-deadline-miss — a request whose deadline has already expired
//     when a worker picks it up is dropped without executing. The work
//     would be wasted: the client has timed out, and executing it only
//     delays the requests behind it.
//
// Completed-but-late requests (started before the deadline, finished after)
// are delivered and counted separately: the expensive part is already paid
// by then, and `completed_late` makes the lateness visible. An execution
// that throws fails every request of its batch (`failed`); the server
// keeps serving.

#include <cstdint>
#include <string>
#include <vector>

namespace duet::serve {

// A tenant priority class for the multi-tenant fleet runtime (ISSUE 10).
// `weight` is the tenant's weighted-fair-queueing share: over a contended
// interval a tenant with twice the weight is billed half the virtual time
// per second of service, so it gets twice the throughput. `deadline_s` is
// the default deadline applied to the tenant's requests submitted without
// one (<= 0 disables shedding for them). Names are small human labels
// (gold/silver/bronze), never per-request ids — tenant-labelled telemetry
// series must stay bounded (see the telemetry-unbounded-series lint).
struct TenantClass {
  std::string name = "default";
  double weight = 1.0;
  double deadline_s = 0.0;
};

// The default three-class palette benchmarks and the CLI use: gold carries
// double silver's share, silver double bronze's.
std::vector<TenantClass> default_tenant_classes(int count,
                                                double deadline_s = 0.0);

// Tally of every admission decision for one tenant class (or a sum of
// them). Lifecycle (lifecycle.hpp) counts under its driver's
// serialization, so these are plain integers. Once every accepted request
// has resolved: offered = completed + shed + rejected + failed.
struct AdmissionCounters {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  uint64_t completed_late = 0;
  uint64_t failed = 0;  // executions that threw; every member of the batch

  AdmissionCounters& operator+=(const AdmissionCounters& o);
  double shed_rate() const {
    return offered > 0
               ? static_cast<double>(shed) / static_cast<double>(offered)
               : 0.0;
  }
  double reject_rate() const {
    return offered > 0
               ? static_cast<double>(rejected) / static_cast<double>(offered)
               : 0.0;
  }
};

}  // namespace duet::serve
