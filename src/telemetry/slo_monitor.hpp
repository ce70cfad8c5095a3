#pragma once

// Sliding-window SLO monitor — the operator-facing (and controller-facing)
// view of serving health. Where the metrics registry accumulates since
// process start, the monitor answers "what happened in the last W seconds":
// windowed latency quantiles, queue wait, queue depth, shed/reject rates,
// SLO breaches, and the plan version that produced them.
//
// The window is a ring of B buckets each covering window/B seconds, each
// holding counts and `LogHistogram`s (metrics.hpp — the registry's
// histogram too). Recording rotates stale buckets forward (zeroing them) and
// adds to the current one; a snapshot merges the live buckets' histograms.
// The window therefore "forgets" with bucket granularity, like every
// production SLO pipeline.
//
// The monitor serializes internally with one mutex: records are a few
// array increments under an uncontended lock, far below the executor run
// they annotate, and snapshot() is called off the hot path.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace duet::telemetry {

// Point-in-time view of the last window. Latencies in microseconds.
struct SloSnapshot {
  double window_s = 0.0;     // span actually covered by live buckets
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
  uint64_t breaches = 0;     // completions over the SLO latency + sheds
  double shed_rate = 0.0;    // shed / offered in window
  double reject_rate = 0.0;  // rejected / offered in window
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double queue_wait_p95_us = 0.0;
  double mean_queue_depth = 0.0;
  uint64_t plan_version = 0;  // latest version observed in window
};

class SloMonitor {
 public:
  // `window_s` of history split into `buckets` ring slots.
  explicit SloMonitor(double window_s = 10.0, int buckets = 10);

  // All record calls take the caller's clock (microseconds, monotonic —
  // telemetry::now_us() in production, synthetic in tests).
  void record_offered(double now_us);
  void record_completed(double now_us, double latency_us, bool breach);
  void record_shed(double now_us);
  void record_rejected(double now_us);
  void record_queue_wait(double now_us, double wait_us);
  void record_queue_depth(double now_us, double depth);
  void record_plan_version(double now_us, uint64_t version);

  SloSnapshot snapshot(double now_us) const;

  double window_s() const { return window_s_; }
  void clear();

 private:
  struct Bucket {
    int64_t epoch = -1;  // which window slot this bucket currently holds
    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t rejected = 0;
    uint64_t breaches = 0;
    double depth_sum = 0.0;
    uint64_t depth_samples = 0;
    uint64_t plan_version = 0;
    LogHistogram latency_us;
    LogHistogram queue_wait_us;
  };

  // Rotates the ring to `now_us` and returns the current bucket. Caller
  // holds mutex_.
  Bucket& advance(double now_us);

  double window_s_;
  double bucket_s_;
  mutable std::mutex mutex_;
  mutable std::vector<Bucket> ring_;
};

}  // namespace duet::telemetry
