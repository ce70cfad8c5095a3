#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace duet::telemetry {
namespace {

constexpr size_t kDefaultRingCapacity = 4096;

// One per-thread ring. Single writer (its current owning thread); readers
// only via the freeze handshake. `head` counts lifetime records — slot =
// head % capacity — so overwrites are head - capacity. `active` is the
// writer's half of the Dekker handshake with the dumper's `g_frozen`.
struct Ring {
  explicit Ring(size_t capacity) : slots(capacity) {}
  std::vector<FlightEvent> slots;
  std::atomic<uint64_t> head{0};
  std::atomic<uint32_t> active{0};
  uint32_t tid = 0;
};

struct RingRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Ring>> rings;  // every ring ever made
  std::vector<Ring*> free;                   // rings of exited threads, LIFO
  size_t capacity = kDefaultRingCapacity;
  uint32_t next_tid = 0;  // small sequential thread ids, by first record
};

RingRegistry& ring_registry() {
  static RingRegistry* r = new RingRegistry();  // leaked: threads outlive main
  return *r;
}

// A thread's claim on one ring: taken from the free list (or made) on the
// thread's first record, handed back when the thread exits.
struct RingLease {
  Ring* ring;
  RingLease() {
    RingRegistry& r = ring_registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (r.free.empty()) {
      r.rings.push_back(std::make_unique<Ring>(r.capacity));
      ring = r.rings.back().get();
    } else {
      ring = r.free.back();
      r.free.pop_back();
    }
    ring->tid = r.next_tid++;
  }
  ~RingLease() {
    RingRegistry& r = ring_registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.free.push_back(ring);
  }
  RingLease(const RingLease&) = delete;
  RingLease& operator=(const RingLease&) = delete;
};

Ring& local_ring() {
  thread_local RingLease lease;
  return *lease.ring;
}

std::atomic<bool> g_recording{true};  // always-on by default
std::atomic<bool> g_frozen{false};
std::mutex g_dump_mutex;

// The one slot write every event takes. `fill` sets every field but tid;
// it runs only when the event is kept, so record()'s clock read stays off
// the dropped path.
template <typename Fill>
inline void write_slot(Fill&& fill) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  Ring& ring = local_ring();
  // Dekker handshake with freeze(): publish "writing" before checking
  // frozen, both seq_cst, so either the dumper sees active and waits, or we
  // see frozen and abort — never a concurrent slot read/write.
  ring.active.store(1, std::memory_order_seq_cst);
  if (g_frozen.load(std::memory_order_seq_cst)) {
    ring.active.store(0, std::memory_order_release);
    return;
  }
  const uint64_t head = ring.head.load(std::memory_order_relaxed);
  FlightEvent& slot = ring.slots[head % ring.slots.size()];
  fill(slot);
  slot.tid = ring.tid;
  ring.head.store(head + 1, std::memory_order_release);
  ring.active.store(0, std::memory_order_release);
}

}  // namespace

const char* flight_kind_name(FlightKind kind) {
  static constexpr const char* kNames[kNumFlightKinds] = {
      "enqueue", "reject",   "pickup",   "shed",     "launch",
      "transfer", "swap",    "complete", "coalesce", "span"};
  const auto index = static_cast<size_t>(kind);
  return index < kNumFlightKinds ? kNames[index] : "unknown";
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

bool FlightRecorder::recording_enabled() const {
  return g_recording.load(std::memory_order_relaxed);
}

void FlightRecorder::set_recording_enabled(bool on) {
  g_recording.store(on, std::memory_order_relaxed);
}

void FlightRecorder::record(FlightKind kind, uint64_t trace_id, uint64_t arg0,
                            uint64_t arg1, uint8_t device) {
  write_slot([&](FlightEvent& slot) {
    slot.t_us = now_us();
    slot.trace_id = trace_id;
    slot.arg0 = arg0;
    slot.arg1 = arg1;
    slot.kind = kind;
    slot.device = device;
    slot.depth = 0;
  });
}

void FlightRecorder::record_span(double start_us, double dur_us,
                                 uint32_t label, uint16_t depth) {
  const uint64_t trace_id = current_trace_id();
  write_slot([&](FlightEvent& slot) {
    slot.t_us = start_us;
    slot.trace_id = trace_id;
    slot.arg0 = static_cast<uint64_t>(std::max(0.0, dur_us) * 1e3);
    slot.arg1 = label;
    slot.kind = FlightKind::kSpan;
    slot.device = 255;
    slot.depth = depth;
  });
}

bool FlightRecorder::frozen() const {
  return g_frozen.load(std::memory_order_seq_cst);
}

void FlightRecorder::freeze() {
  g_frozen.store(true, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(ring_registry().mutex);
  for (const auto& ring : ring_registry().rings) {
    // Spin until any in-flight record on this ring retires; each wait is at
    // most one slot write long.
    while (ring->active.load(std::memory_order_seq_cst) != 0) {
    }
  }
}

void FlightRecorder::unfreeze() {
  g_frozen.store(false, std::memory_order_seq_cst);
}

std::vector<FlightEvent> FlightRecorder::collect(double window_ms) const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(ring_registry().mutex);
    for (const auto& ring : ring_registry().rings) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t capacity = ring->slots.size();
      const uint64_t first = head > capacity ? head - capacity : 0;
      for (uint64_t i = first; i < head; ++i) {
        out.push_back(ring->slots[i % capacity]);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.t_us < b.t_us;
                   });
  if (window_ms > 0.0 && !out.empty()) {
    const double cutoff = out.back().t_us - window_ms * 1000.0;
    out.erase(std::remove_if(out.begin(), out.end(),
                             [cutoff](const FlightEvent& e) {
                               return e.t_us < cutoff;
                             }),
              out.end());
  }
  return out;
}

uint64_t FlightRecorder::recorded() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(ring_registry().mutex);
  for (const auto& ring : ring_registry().rings) {
    total += ring->head.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t FlightRecorder::overwritten() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(ring_registry().mutex);
  for (const auto& ring : ring_registry().rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t capacity = ring->slots.size();
    if (head > capacity) total += head - capacity;
  }
  return total;
}

void FlightRecorder::set_ring_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(ring_registry().mutex);
  ring_registry().capacity = capacity == 0 ? 1 : capacity;
  for (const auto& ring : ring_registry().rings) {
    ring->slots.assign(ring_registry().capacity, FlightEvent{});
    ring->head.store(0, std::memory_order_release);
  }
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(ring_registry().mutex);
  for (const auto& ring : ring_registry().rings) {
    ring->head.store(0, std::memory_order_release);
  }
}

// --- serialization -----------------------------------------------------------

namespace {

// Trace ids whose surviving events cover the full request path (enqueue ->
// pickup -> launch -> complete), ascending.
std::vector<uint64_t> complete_trace_ids(const std::vector<FlightEvent>& events) {
  constexpr uint32_t kFullPath =
      (1u << static_cast<int>(FlightKind::kEnqueue)) |
      (1u << static_cast<int>(FlightKind::kPickup)) |
      (1u << static_cast<int>(FlightKind::kLaunch)) |
      (1u << static_cast<int>(FlightKind::kComplete));
  std::map<uint64_t, uint32_t> kinds_seen;
  for (const FlightEvent& e : events) {
    if (e.trace_id != 0) {
      kinds_seen[e.trace_id] |= 1u << static_cast<int>(e.kind);
    }
  }
  std::vector<uint64_t> ids;
  for (const auto& [id, mask] : kinds_seen) {
    if ((mask & kFullPath) == kFullPath) ids.push_back(id);
  }
  return ids;
}

}  // namespace

void summarize_flight_events(const std::vector<FlightEvent>& events,
                             FlightDumpSummary* summary) {
  summary->events = events.size();
  if (!events.empty()) {
    summary->window_start_us = events.front().t_us;
    summary->window_end_us = events.back().t_us;
  }
  std::vector<uint32_t> tids;
  for (const FlightEvent& e : events) {
    summary->kind_counts[static_cast<int>(e.kind)]++;
    tids.push_back(e.tid);
  }
  std::sort(tids.begin(), tids.end());
  summary->threads = std::unique(tids.begin(), tids.end()) - tids.begin();
  summary->complete_paths = complete_trace_ids(events).size();
}

void append_wall_events(ChromeTraceWriter& writer,
                        const std::vector<FlightEvent>& events) {
  using Arg = ChromeTraceWriter::Arg;
  if (events.empty()) return;
  writer.set_process_name(kWallClockPid, "duet (wall clock)");
  std::vector<uint32_t> tids;
  for (const FlightEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const uint32_t tid : tids) {
    writer.set_thread_name(kWallClockPid, static_cast<int>(tid),
                           "thread " + std::to_string(tid));
  }

  // A span's slice lasts the span; a point event is a thin 1 us slice (flow
  // arrows need an enclosing slice to bind to).
  const auto slice_us = [](const FlightEvent& e) {
    return e.kind == FlightKind::kSpan ? static_cast<double>(e.arg0) / 1e3 : 1.0;
  };
  std::map<uint64_t, SpanLabel> labels;  // resolved once per distinct id
  std::map<uint64_t, std::vector<size_t>> arcs;  // trace id -> event indices
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    const int tid = static_cast<int>(e.tid);
    std::vector<Arg> args;
    if (e.trace_id != 0) {
      args.push_back(Arg::integer("trace_id", static_cast<int64_t>(e.trace_id)));
      arcs[e.trace_id].push_back(i);
    }
    if (e.kind == FlightKind::kSpan) {
      auto it = labels.find(e.arg1);
      if (it == labels.end()) it = labels.emplace(e.arg1, span_label(e.arg1)).first;
      const SpanLabel& label = it->second;
      args.push_back(Arg::integer("depth", e.depth));
      if (!label.detail.empty()) args.push_back(Arg::str("detail", label.detail));
      writer.add_complete(label.name, label.category, kWallClockPid, tid, e.t_us,
                          slice_us(e), args);
    } else {
      args.push_back(Arg::integer("arg0", static_cast<int64_t>(e.arg0)));
      args.push_back(Arg::integer("arg1", static_cast<int64_t>(e.arg1)));
      if (e.device != 255) args.push_back(Arg::integer("device", e.device));
      writer.add_complete(flight_kind_name(e.kind), "flight", kWallClockPid, tid,
                          e.t_us, slice_us(e), args);
    }
  }

  for (const auto& [trace_id, indices] : arcs) {
    if (indices.size() < 2) continue;  // an arc needs two ends
    for (size_t j = 0; j < indices.size(); ++j) {
      const FlightEvent& e = events[indices[j]];
      const char phase = j == 0 ? 's' : (j + 1 == indices.size() ? 'f' : 't');
      // ts inside the event's own slice (at most 0.5 us past its start) so
      // the arrow binds to it rather than to an enclosing span.
      writer.add_flow("request", "flight", kWallClockPid, static_cast<int>(e.tid),
                      e.t_us + std::min(slice_us(e), 1.0) / 2.0, trace_id, phase);
    }
  }
}

std::string flight_summary_json(const FlightDumpSummary& summary,
                                const std::vector<FlightEvent>& events) {
  std::ostringstream os;
  os << "{\"reason\":\"" << json_escape(summary.reason) << "\"";
  os << ",\"events\":" << summary.events;
  os << ",\"threads\":" << summary.threads;
  os << ",\"overwritten\":" << summary.overwritten;
  os << ",\"window_start_us\":" << json_number(summary.window_start_us);
  os << ",\"window_end_us\":" << json_number(summary.window_end_us);
  os << ",\"complete_paths\":" << summary.complete_paths;
  os << ",\"kind_counts\":{";
  for (int k = 0; k < kNumFlightKinds; ++k) {
    if (k) os << ",";
    os << "\"" << flight_kind_name(static_cast<FlightKind>(k))
       << "\":" << summary.kind_counts[k];
  }
  os << "}";
  // One reconstructed path as a worked example for the post-mortem reader:
  // the first trace id whose full lifecycle survived.
  const std::vector<uint64_t> complete = complete_trace_ids(events);
  os << ",\"example_path\":[";
  if (!complete.empty()) {
    bool first = true;
    for (const FlightEvent& e : events) {
      if (e.trace_id != complete.front()) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"kind\":\"" << flight_kind_name(e.kind)
         << "\",\"t_us\":" << json_number(e.t_us) << ",\"tid\":" << e.tid
         << "}";
    }
  }
  os << "]}";
  return os.str();
}

namespace {

// Writes `text` to `<path>.tmp`, checks the stream, then renames it onto
// `path`; on any failure removes the temp file and returns false.
bool write_file_atomically(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

FlightDumpSummary FlightRecorder::dump(const std::string& dir,
                                       const std::string& reason,
                                       double window_ms) {
  std::lock_guard<std::mutex> serialize(g_dump_mutex);
  freeze();
  FlightDumpSummary summary;
  summary.reason = reason;
  std::vector<FlightEvent> events = collect(window_ms);
  summary.overwritten = overwritten();
  summarize_flight_events(events, &summary);

  ChromeTraceWriter writer;
  append_wall_events(writer, events);
  const std::string trace = writer.to_json();
  const std::string summary_text = flight_summary_json(summary, events);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path base(dir);
  const std::string trace_path = (base / "flight_trace.json").string();
  const std::string summary_path = (base / "flight_summary.json").string();
  if (!ec && validate_json(trace) && validate_json(summary_text) &&
      write_file_atomically(trace_path, trace)) {
    if (write_file_atomically(summary_path, summary_text)) {
      summary.trace_path = trace_path;
      summary.summary_path = summary_path;
    } else {
      std::remove(trace_path.c_str());  // half a dump is no dump
    }
  }
  unfreeze();
  return summary;
}

// --- dump trigger ------------------------------------------------------------

DumpTrigger::DumpTrigger(DumpTriggerConfig config)
    : config_(std::move(config)) {}

bool DumpTrigger::fire_locked() {
  if (fired_) return false;
  fired_ = true;
  return true;
}

bool DumpTrigger::on_deadline_miss(double now_us) {
  if (config_.miss_burst == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  miss_times_us_.push_back(now_us);
  const double cutoff = now_us - config_.miss_window_ms * 1000.0;
  while (!miss_times_us_.empty() && miss_times_us_.front() < cutoff) {
    miss_times_us_.pop_front();
  }
  if (miss_times_us_.size() >= config_.miss_burst) return fire_locked();
  return false;
}

bool DumpTrigger::on_outcome(bool shed) {
  if (config_.shed_rate <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  outcomes_.push_back(shed);
  if (shed) ++outcomes_shed_;
  while (outcomes_.size() > config_.rate_window) {
    if (outcomes_.front()) --outcomes_shed_;
    outcomes_.pop_front();
  }
  if (outcomes_.size() >= std::min<size_t>(config_.rate_window, 8) &&
      static_cast<double>(outcomes_shed_) /
              static_cast<double>(outcomes_.size()) >=
          config_.shed_rate) {
    return fire_locked();
  }
  return false;
}

bool DumpTrigger::fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fired_;
}

void DumpTrigger::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  miss_times_us_.clear();
  outcomes_.clear();
  outcomes_shed_ = 0;
  fired_ = false;
}

// --- fatal-signal dump -------------------------------------------------------

namespace {

std::mutex g_signal_mutex;
std::string g_signal_dir;
bool g_signal_installed = false;

void fatal_signal_handler(int sig) {
  // Best effort: the process is dying; freeze so the rings stop moving,
  // attempt the dump, then fall through to the default disposition.
  FlightRecorder::instance().freeze();
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(g_signal_mutex);
    dir = g_signal_dir;
  }
  if (!dir.empty()) {
    FlightRecorder::instance().dump(dir,
                                    "signal:" + std::to_string(sig));
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void install_signal_dump(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_signal_mutex);
  g_signal_dir = dir;
  if (!g_signal_installed) {
    g_signal_installed = true;
    std::signal(SIGSEGV, &fatal_signal_handler);
    std::signal(SIGABRT, &fatal_signal_handler);
    std::signal(SIGBUS, &fatal_signal_handler);
  }
}

std::string signal_dump_dir() {
  std::lock_guard<std::mutex> lock(g_signal_mutex);
  return g_signal_dir;
}

}  // namespace duet::telemetry
