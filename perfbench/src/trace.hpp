#pragma once

// Benchmark-side span tracer. Spans are recorded around the calls the
// benchmark makes into each library layer (nothing inside the library is
// instrumented), kept in memory, and reduced at exit to per-layer self time:
// a span's duration minus the part of it its direct children cover.
//
// Disabled (the untraced run), a Span costs one relaxed atomic load.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since process start; shared by spans and the
// workloads' own timers.
double now_s();

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  struct Record {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t thread = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  struct Layer {
    double self_s = 0.0;
    uint64_t count = 0;
  };

  // Summed self time and span count of the spans named `name`.
  Layer layer(const std::string& name) const;
  size_t size() const;

  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class Span;
  Tracer() = default;
  void add(Record record);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  Tracer::Record record_;
};

}  // namespace perfbench
