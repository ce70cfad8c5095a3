#pragma once

// Wall-clock spans — the first pillar of the observability layer.
//
// Telemetry is compiled in everywhere but runtime-toggleable: every record
// path starts with a single relaxed atomic load (`telemetry::enabled()`), so
// the disabled mode costs one predictable branch and the benchmark numbers
// are unaffected. When enabled, an RAII `ScopedSpan` interns its (name,
// category, detail) label once and, on destruction, writes one `kSpan`
// event into the calling thread's flight-recorder ring
// (flight_recorder.hpp): start time, duration, label id, nesting depth and
// the active request trace id. The rings are the only wall-clock event
// store; `FlightRecorder::collect()` reads spans and point events alike,
// ready for `telemetry::export_chrome_trace` (trace_export.hpp).
//
// The metrics registry (metrics.hpp) and the Chrome-trace writer
// (chrome_trace.hpp) complete the layer, and sit below duet_common so even
// the logger can feed them.

#include <atomic>
#include <cstdint>
#include <string>

namespace duet::telemetry {

// Process-global toggle. Off by default so library users (and bench/) never
// pay for instrumentation they did not ask for.
bool enabled();
void set_enabled(bool on);

// RAII toggle for tests and CLI entry points.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool on) : previous_(enabled()) { set_enabled(on); }
  ~ScopedTelemetry() { set_enabled(previous_); }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  bool previous_;
};

// Microseconds of wall clock since process start (steady, monotonic).
double now_us();

// What a span event's label id (FlightEvent::arg1 of a kSpan) stands for.
// Labels are interned for the process lifetime, so callers must draw them
// from a bounded set: per-request detail belongs in the trace id, not the
// name. Past kMaxSpanLabels distinct labels every new one maps to id 0,
// {"span-label-overflow", "telemetry", ""}.
struct SpanLabel {
  std::string name;
  std::string category;  // "compiler", "profile", "sched", "plan", "exec", ...
  std::string detail;    // free-form annotation (device, pass, model, ...)
};
inline constexpr uint32_t kMaxSpanLabels = 1u << 16;

// The label behind `id`; the overflow label for an id never handed out.
SpanLabel span_label(uint64_t id);

// RAII scoped span: captures the start time at construction and records the
// completed span at destruction. A span constructed while telemetry is
// disabled records nothing (and skips the clock reads); like every flight
// event, a span is also dropped while the recorder is frozen or switched
// off.
class ScopedSpan {
 public:
  ScopedSpan(std::string name, std::string category, std::string detail = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }

 private:
  bool active_ = false;
  uint32_t label_ = 0;
  uint16_t depth_ = 0;
  double start_us_ = 0.0;
};

}  // namespace duet::telemetry
