#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "telemetry/chrome_trace.hpp"

namespace duet::telemetry {
namespace {

// CAS-loop fetch_max for pre-C++20-style atomic doubles.
void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < v &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

void Gauge::set(double v) {
  if (!enabled()) return;
  value_.store(v, std::memory_order_relaxed);
}

void Gauge::record_max(double v) {
  if (!enabled()) return;
  atomic_max(value_, v);
}

double Gauge::value() const { return value_.load(std::memory_order_relaxed); }

void Gauge::reset() { value_.store(0.0, std::memory_order_relaxed); }

// --- LogHistogram ------------------------------------------------------------

int LogHistogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // underflow bucket (also catches NaN)
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const int octave = exp - 1;            // v in [2^octave, 2^(octave+1))
  if (octave < kMinExponent) return 0;
  if (octave > kMaxExponent + 1) return kNumBuckets - 1;
  const double scaled = (m - 0.5) * 2.0 * kSubBucketsPerOctave;  // [0, 4)
  const int sub = static_cast<int>(scaled);
  // Buckets are (lower, upper], the way Prometheus reads `le`: a value
  // exactly on a bound belongs to the bucket below it.
  const int on_bound = static_cast<double>(sub) == scaled ? 1 : 0;
  return std::min(kNumBuckets - 1, (octave - kMinExponent) * kSubBucketsPerOctave +
                                       sub + 1 - on_bound);
}

double LogHistogram::bucket_lower(int index) {
  if (index <= 0) return 0.0;
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExponent + 1);
  const int octave = (index - 1) / kSubBucketsPerOctave + kMinExponent;
  const int sub = (index - 1) % kSubBucketsPerOctave;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBucketsPerOctave,
                    octave);
}

double LogHistogram::bucket_upper(int index) {
  if (index <= 0) return std::ldexp(1.0, kMinExponent);
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExponent + 2);
  const int octave = (index - 1) / kSubBucketsPerOctave + kMinExponent;
  const int sub = (index - 1) % kSubBucketsPerOctave;
  return std::ldexp(
      1.0 + static_cast<double>(sub + 1) / kSubBucketsPerOctave, octave);
}

void LogHistogram::observe(double v) {
  buckets_[static_cast<size_t>(bucket_index(v))]++;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::clear() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double LogHistogram::observed_min() const { return count_ ? min_ : 0.0; }
double LogHistogram::observed_max() const { return count_ ? max_ : 0.0; }
double LogHistogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = clamp01(q) * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[static_cast<size_t>(i)] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += buckets_[static_cast<size_t>(i)];
    if (static_cast<double>(cumulative) >= target) {
      const double within =
          clamp01((target - static_cast<double>(before)) /
                  static_cast<double>(buckets_[static_cast<size_t>(i)]));
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      const double v = lo + (hi - lo) * within;
      return std::min(max_, std::max(min_, v));
    }
  }
  return max_;
}

// --- SharedHistogram ---------------------------------------------------------

void SharedHistogram::observe(double v) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.observe(v);
}

LogHistogram SharedHistogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_;
}

void SharedHistogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.clear();
}

// --- registry ----------------------------------------------------------------

namespace {

struct RegistryState {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<SharedHistogram>> histograms;
};

RegistryState& state() {
  static RegistryState* s = new RegistryState();  // leaked: see telemetry.cpp
  return *s;
}

HistogramStats summarize(const LogHistogram& h) {
  HistogramStats s;
  s.count = h.count();
  s.sum = h.sum();
  s.min = h.observed_min();
  s.max = h.observed_max();
  s.mean = h.mean();
  s.p50 = h.percentile(0.50);
  s.p95 = h.percentile(0.95);
  s.p99 = h.percentile(0.99);
  return s;
}

void check_unique(const RegistryState& s, const std::string& name,
                  const char* kind) {
  const bool clash =
      (s.counters.count(name) != 0 && std::string(kind) != "counter") ||
      (s.gauges.count(name) != 0 && std::string(kind) != "gauge") ||
      (s.histograms.count(name) != 0 && std::string(kind) != "histogram");
  if (clash) {
    throw std::runtime_error("metric \"" + name +
                             "\" already registered as a different kind");
  }
}

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  check_unique(s, name, "counter");
  auto& slot = s.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  check_unique(s, name, "gauge");
  auto& slot = s.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

SharedHistogram& MetricsRegistry::histogram(const std::string& name) {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  check_unique(s, name, "histogram");
  auto& slot = s.histograms[name];
  if (!slot) slot = std::make_unique<SharedHistogram>();
  return *slot;
}

void MetricsRegistry::reset() {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [name, c] : s.counters) c->reset();
  for (auto& [name, g] : s.gauges) g->reset();
  for (auto& [name, h] : s.histograms) h->reset();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::counters() const {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(s.counters.size());
  for (const auto& [name, c] : s.counters) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(s.gauges.size());
  for (const auto& [name, g] : s.gauges) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, HistogramStats>> MetricsRegistry::histograms()
    const {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<std::pair<std::string, HistogramStats>> out;
  out.reserve(s.histograms.size());
  for (const auto& [name, h] : s.histograms) {
    out.emplace_back(name, summarize(h->snapshot()));
  }
  return out;
}

std::vector<std::pair<std::string, LogHistogram>>
MetricsRegistry::histogram_series() const {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<std::pair<std::string, LogHistogram>> out;
  out.reserve(s.histograms.size());
  for (const auto& [name, h] : s.histograms) {
    out.emplace_back(name, h->snapshot());
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << json_number(value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << json_number(h.sum) << ",\"min\":" << json_number(h.min)
       << ",\"max\":" << json_number(h.max)
       << ",\"mean\":" << json_number(h.mean)
       << ",\"p50\":" << json_number(h.p50)
       << ",\"p95\":" << json_number(h.p95)
       << ",\"p99\":" << json_number(h.p99) << "}";
  }
  os << "}}";
  return os.str();
}

Counter& counter(const std::string& name) {
  return MetricsRegistry::instance().counter(name);
}

Gauge& gauge(const std::string& name) {
  return MetricsRegistry::instance().gauge(name);
}

SharedHistogram& histogram(const std::string& name) {
  return MetricsRegistry::instance().histogram(name);
}

}  // namespace duet::telemetry
