#pragma once

// Prometheus text-format exposition over the metrics registry — the fourth
// piece of the PR-8 observability layer. The registry's dotted metric names
// are sanitized into the Prometheus grammar ([a-zA-Z_:][a-zA-Z0-9_:]*,
// dots and dashes become underscores) and prefixed "duet_"; counters map to
// `counter`, gauges to `gauge`, and log-scale histograms to the full
// `histogram` family (cumulative `_bucket{le="..."}` series over one fixed
// le set — every finite LogHistogram bucket's upper bound — ending in
// le="+Inf", plus `_sum` and `_count`), so a scrape of the written file is
// directly ingestible. `duet_cli serve-bench --metrics-out <path>` writes
// one exposition after the run; the obs-smoke CI job validates the grammar.

#include <string>

namespace duet::telemetry {

class MetricsRegistry;

// "duet_" + sanitized name. Exposed for tests and label construction.
std::string prometheus_name(const std::string& name);

// Full exposition of every metric currently registered (with # HELP/# TYPE
// headers, sorted by name within each kind).
std::string to_prometheus_text(const MetricsRegistry& registry);

}  // namespace duet::telemetry
