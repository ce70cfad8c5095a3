#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "telemetry/flight_recorder.hpp"

namespace duet::telemetry {
namespace {

std::atomic<bool> g_enabled{false};

using Clock = std::chrono::steady_clock;

Clock::time_point process_start() {
  static const Clock::time_point start = Clock::now();
  return start;
}

// Process-lifetime label table: id -> label, and the reverse index keyed by
// the three fields joined with '\0'. Id 0 is the overflow label.
struct LabelTable {
  std::mutex mutex;
  std::deque<SpanLabel> labels{{"span-label-overflow", "telemetry", ""}};
  std::unordered_map<std::string, uint32_t> ids;
};

LabelTable& label_table() {
  static LabelTable* t = new LabelTable();  // leaked: threads may outlive main
  return *t;
}

uint32_t intern_label(std::string name, std::string category,
                      std::string detail) {
  std::string key = name;
  key += '\0';
  key += category;
  key += '\0';
  key += detail;
  LabelTable& t = label_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  const auto it = t.ids.find(key);
  if (it != t.ids.end()) return it->second;
  if (t.labels.size() >= kMaxSpanLabels) return 0;
  const auto id = static_cast<uint32_t>(t.labels.size());
  t.labels.push_back({std::move(name), std::move(category), std::move(detail)});
  t.ids.emplace(std::move(key), id);
  return id;
}

thread_local int tl_depth = 0;

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   process_start())
      .count();
}

SpanLabel span_label(uint64_t id) {
  LabelTable& t = label_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  return t.labels[id < t.labels.size() ? static_cast<size_t>(id) : 0];
}

ScopedSpan::ScopedSpan(std::string name, std::string category,
                       std::string detail) {
  if (!enabled()) return;
  active_ = true;
  label_ = intern_label(std::move(name), std::move(category), std::move(detail));
  depth_ = static_cast<uint16_t>(std::min(tl_depth++, 0xffff));
  start_us_ = now_us();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --tl_depth;
  FlightRecorder::instance().record_span(start_us_, now_us() - start_us_,
                                         label_, depth_);
}

}  // namespace duet::telemetry
