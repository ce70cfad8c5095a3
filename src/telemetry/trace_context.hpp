#pragma once

// Causal request tracing — the thread-local half of the PR-8 observability
// layer. A trace id is minted at admission (FleetServer::submit), carried
// inside the queued request, and re-established on the worker thread with a
// `TraceScope` before the executor runs. Anything recorded inside the scope
// (flight-recorder launches/transfers, timeline events) tags itself with
// `current_trace_id()`, so one request's cross-thread path can be stitched
// back together as Chrome flow events in a post-mortem dump.
//
// The context is a single thread_local integer: establishing a scope is two
// stores, reading it is one load, and nothing here allocates or locks — safe
// inside the flight recorder's always-on hot path.

#include <cstdint>

namespace duet::telemetry {

namespace detail {
inline thread_local uint64_t tl_trace_id = 0;
}  // namespace detail

// Trace id active on the calling thread; 0 = no request context.
inline uint64_t current_trace_id() { return detail::tl_trace_id; }

// RAII trace context: sets the calling thread's trace id for the scope's
// lifetime and restores the previous id on exit (scopes nest).
class TraceScope {
 public:
  explicit TraceScope(uint64_t id) : previous_(detail::tl_trace_id) {
    detail::tl_trace_id = id;
  }
  ~TraceScope() { detail::tl_trace_id = previous_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  uint64_t previous_;
};

}  // namespace duet::telemetry
