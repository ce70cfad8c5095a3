#pragma once

// Metrics registry — the second pillar of the observability layer: named
// counters, gauges, and log-scale histograms, all safe for concurrent
// recording. Like spans, every record path is guarded by the single relaxed
// `telemetry::enabled()` check so disabled-mode overhead is one atomic load.
//
// Metrics are registered on first use and live for the process; `reset()`
// zeroes values but never invalidates references, so call sites may cache
//   static telemetry::Counter& c = telemetry::counter("executor.launches");
// Hot paths should additionally pre-check `enabled()` to skip the registry
// lookup entirely.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace duet::telemetry {

// Monotonic event count (kernel launches, transfer bytes, fallbacks, ...).
class Counter {
 public:
  void add(uint64_t n = 1) {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write or high-watermark value (arena peaks, plan sizes, ...).
class Gauge {
 public:
  void set(double v);
  // Keeps the maximum of all observations since the last reset.
  void record_max(double v);
  double value() const;
  void reset();

 private:
  std::atomic<double> value_{0.0};
};

// Log-scale histogram over positive values (microseconds by convention) —
// HDR-style: buckets are sub-divided powers of two (kSubBucketsPerOctave
// per octave), so relative error is bounded (a bucket spans at most 25% of
// its lower edge) across nine decades without choosing bounds up front.
// Merging is bucket-wise addition, which is what makes the SLO monitor's
// windowing cheap. Not thread-safe by itself; the registry wraps it in
// SharedHistogram.
class LogHistogram {
 public:
  static constexpr int kSubBucketsPerOctave = 4;
  static constexpr int kMinExponent = -1;  // ~0.5 and below
  static constexpr int kMaxExponent = 37;  // ~1.4e11 us ≈ 38 h
  static constexpr int kNumBuckets =
      (kMaxExponent - kMinExponent + 1) * kSubBucketsPerOctave + 2;

  void observe(double v);
  void merge(const LogHistogram& other);
  void clear();

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double observed_min() const;
  double observed_max() const;
  double mean() const;
  // q in [0,1]; 0 with no observations. Linear interpolation inside the
  // containing bucket, clamped to the observed min/max.
  double percentile(double q) const;
  uint64_t bucket_count(int index) const {
    return buckets_[static_cast<size_t>(index)];
  }

  // Bucket 0 takes everything up to 2^kMinExponent (and non-positive
  // values), bucket kNumBuckets - 1 everything above 2^(kMaxExponent + 1);
  // every other bucket is (bucket_lower, bucket_upper], so each bucket's
  // count is exactly the samples a Prometheus `le` = bucket_upper adds.
  static int bucket_index(double v);
  static double bucket_lower(int index);
  static double bucket_upper(int index);

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// The registry's histogram: one LogHistogram shared by every recording
// thread under a mutex (an uncontended lock is far below the subgraph run
// or batch it annotates).
class SharedHistogram {
 public:
  void observe(double v);
  LogHistogram snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  LogHistogram histogram_;
};

// Point-in-time histogram summary for reports.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  // Register-on-first-use. Returned references are valid for the process
  // lifetime. Requesting an existing name with a different metric kind
  // throws duet-style std::runtime_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  SharedHistogram& histogram(const std::string& name);

  // Zeroes every metric value; registrations (and references) survive.
  void reset();

  // Sorted name -> value views for reports.
  std::vector<std::pair<std::string, uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, HistogramStats>> histograms() const;
  // Bucket-level snapshots for exporters (Prometheus).
  std::vector<std::pair<std::string, LogHistogram>> histogram_series() const;

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
};

// Convenience accessors onto the global registry.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
SharedHistogram& histogram(const std::string& name);

}  // namespace duet::telemetry
