#include "telemetry/prometheus.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "telemetry/metrics.hpp"

namespace duet::telemetry {

namespace {

// %.17g round-trips doubles; Prometheus accepts full float syntax.
std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out = "duet_";
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
      out += c;
    } else {
      out += '_';
    }
  }
  return out;
}

std::string to_prometheus_text(const MetricsRegistry& registry) {
  std::ostringstream os;
  for (const auto& [name, value] : registry.counters()) {
    const std::string prom = prometheus_name(name);
    os << "# HELP " << prom << " duet counter " << name << "\n";
    os << "# TYPE " << prom << " counter\n";
    os << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string prom = prometheus_name(name);
    os << "# HELP " << prom << " duet gauge " << name << "\n";
    os << "# TYPE " << prom << " gauge\n";
    os << prom << " " << prom_number(value) << "\n";
  }
  for (const auto& [name, histogram] : registry.histogram_series()) {
    const std::string prom = prometheus_name(name);
    os << "# HELP " << prom << " duet histogram " << name << "\n";
    os << "# TYPE " << prom << " histogram\n";
    // One fixed le set for every histogram: each finite LogHistogram
    // bucket's upper bound, then +Inf (which adds the overflow bucket).
    uint64_t cumulative = 0;
    for (int b = 0; b + 1 < LogHistogram::kNumBuckets; ++b) {
      cumulative += histogram.bucket_count(b);
      os << prom << "_bucket{le=\"" << prom_number(LogHistogram::bucket_upper(b))
         << "\"} " << cumulative << "\n";
    }
    os << prom << "_bucket{le=\"+Inf\"} " << histogram.count() << "\n";
    os << prom << "_sum " << prom_number(histogram.sum()) << "\n";
    os << prom << "_count " << histogram.count() << "\n";
  }
  return os.str();
}

}  // namespace duet::telemetry
