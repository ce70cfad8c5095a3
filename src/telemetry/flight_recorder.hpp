#pragma once

// Flight recorder — the one wall-clock event store, always on for incident
// capture in the serving runtime.
//
// It is ON by default, bounded, and cheap enough to leave on under
// production load (the overhead gate in bench/serve_obs.cpp holds it to
// <= 5% p99 on the serving benchmark). Telemetry spans (telemetry.hpp) land
// here too, as `kSpan` events, whenever `telemetry::enabled()`.
//
// Design: each recording thread owns a fixed-capacity ring of compact POD
// `FlightEvent`s (40 bytes each). The writer never locks and never blocks —
// a record is a slot write plus an atomic head bump, overwriting the oldest
// event when the ring wraps. Rings are registered globally so a dump can
// walk threads that have since exited. When a thread exits, its ring goes to
// a LIFO free list and the next new recording thread takes it over, head
// and all: the old events stay readable until they are overwritten, and the
// ring count is bounded by the peak number of concurrent recording threads.
//
// Dump protocol: `freeze()` stops all writers, then `dump()` collects the
// surviving window across rings and writes two validated artifacts — a
// Chrome trace whose flow events stitch each request's cross-thread path
// into one connected arc, and a JSON summary (event counts, window bounds,
// reconstructed request paths, trigger reason). Freezing uses a Dekker
// handshake (writer: active=1 then check frozen; dumper: frozen=1 then spin
// on active, both seq_cst) so the dump never reads a slot mid-write and the
// writer never takes a lock — TSan-clean without a mutex on the hot path.
//
// Triggers: `DumpTrigger` turns raw signals (deadline misses, shed
// outcomes) into a fire-once decision — a miss burst within a window or a
// shed-rate threshold over recent outcomes. `install_signal_dump()` adds a
// best-effort fatal-signal handler (freeze + dump + re-raise) for crashes.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace duet::telemetry {

enum class FlightKind : uint8_t {
  kEnqueue = 0,   // request accepted into the queue (admission)
  kReject,        // request refused at admission (queue full / draining)
  kPickup,        // worker popped the request
  kShed,          // deadline expired before execution; dropped unexecuted
  kLaunch,        // one subgraph launched on a device
  kTransfer,      // one cross-device transfer
  kSwap,          // plan swap (recalibration)
  kComplete,      // response resolved back to the caller
  kCoalesce,      // batched pickup merged multiple requests (fleet serving)
  kSpan,          // one completed telemetry::ScopedSpan
};
inline constexpr int kNumFlightKinds = 10;

const char* flight_kind_name(FlightKind kind);

// Compact fixed-size binary event. Meaning of arg0/arg1 by kind:
//   kEnqueue/kReject: arg0 = queue depth at admission
//   kPickup/kShed:    arg0 = queue wait in microseconds
//   kLaunch:          arg0 = subgraph index, arg1 = modeled duration ns
//   kTransfer:        arg0 = subgraph index, arg1 = bytes
//   kSwap:            arg0 = new plan version
//   kComplete:        arg0 = plan version, arg1 = latency in microseconds
//   kCoalesce:        arg0 = batch size, arg1 = registry model index
//   kSpan:            t_us = span start, arg0 = duration in ns,
//                     arg1 = label id (telemetry::span_label), depth = nesting
//                     depth on its thread
struct FlightEvent {
  double t_us = 0.0;
  uint64_t trace_id = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint32_t tid = 0;
  FlightKind kind = FlightKind::kEnqueue;
  uint8_t device = 255;  // DeviceKind index; 255 = not device-bound
  uint16_t depth = 0;    // kSpan only
};
static_assert(sizeof(FlightEvent) == 40, "flight events must stay compact");

// What a dump produced (also serialized into the summary JSON).
struct FlightDumpSummary {
  std::string reason;
  double window_start_us = 0.0;
  double window_end_us = 0.0;
  size_t events = 0;
  size_t threads = 0;
  uint64_t overwritten = 0;  // lifetime events lost to ring wrap, all rings
  uint64_t kind_counts[kNumFlightKinds] = {};
  // Trace ids whose surviving events form a full request path
  // (enqueue -> pickup -> launch -> complete).
  size_t complete_paths = 0;
  // Written files; both empty when the dump could not be written.
  std::string trace_path;    // Chrome trace file
  std::string summary_path;  // summary JSON file
};

// Chrome pid hosting every wall-clock event (one tid per recording thread).
inline constexpr int kWallClockPid = 10;

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  // Always-on by default. The off switch exists for the overhead benchmark
  // (recorder on vs off) and for tests; production leaves it on.
  bool recording_enabled() const;
  void set_recording_enabled(bool on);

  // Hot path: wait-free slot write + head bump on the calling thread's
  // ring. Drops the event (cheaply) while frozen or disabled. trace id is
  // taken from the argument, not the thread context, so callers that
  // already hold it skip the TLS read.
  void record(FlightKind kind, uint64_t trace_id, uint64_t arg0 = 0,
              uint64_t arg1 = 0, uint8_t device = 255);

  bool frozen() const;
  // Stops all writers and waits until in-flight records finished (Dekker
  // handshake; see file comment). Idempotent.
  void freeze();
  void unfreeze();

  // Surviving events across all rings, oldest first. window_ms > 0 keeps
  // only events within that many milliseconds of the newest one. Callers
  // should freeze() first; collect() does not stop writers by itself.
  std::vector<FlightEvent> collect(double window_ms = 0.0) const;

  // Freezes, collects the last `window_ms`, writes `<dir>/flight_trace.json`
  // (Chrome trace with per-request flow arcs) and `<dir>/flight_summary.json`
  // (both validated, each written to `<name>.tmp` and renamed into place),
  // unfreezes, and returns what happened. Creates `dir` if needed. When a
  // file cannot be written, nothing is left behind and both paths in the
  // result are empty. Thread-safe; concurrent dumps serialize.
  FlightDumpSummary dump(const std::string& dir, const std::string& reason,
                         double window_ms = 0.0);

  // Lifetime totals across all rings (recorded includes overwritten).
  uint64_t recorded() const;
  uint64_t overwritten() const;

  // Re-allocates every registered ring and resets heads. Only safe while no
  // other thread records (tests / process start).
  void set_ring_capacity(size_t capacity);
  // Resets every ring's contents and head. Same safety caveat as above.
  void clear();

 private:
  friend class ScopedSpan;
  FlightRecorder() = default;
  // ~ScopedSpan's write: one kSpan event through the same slot write as
  // record(), stamped with the thread's current trace id.
  void record_span(double start_us, double dur_us, uint32_t label,
                   uint16_t depth);
};

class ChromeTraceWriter;

// The one Chrome rendering of wall-clock events, used by every trace the
// repo writes (`export_chrome_trace` adds the modeled timeline); renders
// nothing for no events. Layout: pid kWallClockPid, one "thread N" row per recording thread; spans become
// slices with their real duration (args: depth, detail, trace_id), point
// events 1 us slices named after their kind (args: trace_id, arg0, arg1,
// device); events sharing a trace id are chained by one flow arc in time
// order ("s", then "t" steps, then "f"). `events` must be sorted by t_us,
// as collect() returns them.
void append_wall_events(ChromeTraceWriter& writer,
                        const std::vector<FlightEvent>& events);

// Pure serialization helpers (unit-testable without touching the global
// recorder): `flight_summary_json` renders the summary.
std::string flight_summary_json(const FlightDumpSummary& summary,
                                const std::vector<FlightEvent>& events);
// Fills kind_counts / complete_paths / window bounds from `events`.
void summarize_flight_events(const std::vector<FlightEvent>& events,
                             FlightDumpSummary* summary);

// Fire-once dump policy fed by the serving runtime.
struct DumpTriggerConfig {
  // Fire when this many deadline misses (sheds or late completions) land
  // within `miss_window_ms`. 0 disables the burst trigger.
  uint32_t miss_burst = 0;
  double miss_window_ms = 100.0;
  // Fire when the shed fraction over the last `rate_window` outcomes
  // reaches this. 0 disables the rate trigger.
  double shed_rate = 0.0;
  uint32_t rate_window = 64;
};

class DumpTrigger {
 public:
  explicit DumpTrigger(DumpTriggerConfig config = {});

  // Record a deadline miss at `now_us`; true when the burst trigger fires
  // (first time only).
  bool on_deadline_miss(double now_us);
  // Record a request outcome; true when the shed-rate trigger fires (first
  // time only).
  bool on_outcome(bool shed);

  bool fired() const;
  void reset();

 private:
  bool fire_locked();

  DumpTriggerConfig config_;
  mutable std::mutex mutex_;
  std::deque<double> miss_times_us_;
  std::deque<bool> outcomes_;
  size_t outcomes_shed_ = 0;
  bool fired_ = false;
};

// Best-effort fatal-signal dump (SIGSEGV / SIGABRT / SIGBUS): freezes the
// rings, attempts a dump into `dir`, then re-raises with the default
// handler. Not fully async-signal-safe — acceptable for a post-mortem of a
// process that is dying anyway. Idempotent; later calls retarget `dir`.
void install_signal_dump(const std::string& dir);
// Directory the signal handler would dump into ("" when not installed).
std::string signal_dump_dir();

}  // namespace duet::telemetry
