#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "compiler/compile_cache.hpp"
#include "device/device.hpp"
#include "models/model_zoo.hpp"
#include "profile/profile_cache.hpp"
#include "runtime/executor.hpp"

namespace perfbench {

using namespace duet;

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[512];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", e.name.c_str(), v, e.unit.c_str());
    out += buf;
  }
  return out + "}";
}

void Outcome::problem(const std::string& what) {
  std::printf("PROBLEM: %s\n", what.c_str());
  problems.push_back(what);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(const std::string& label, std::vector<double> samples,
                  double q) {
  if (samples.empty()) {
    std::printf("  %-28s p%g: no samples\n", label.c_str(), q);
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  const double value = samples[rank - 1];
  const size_t beyond = n - rank;
  std::printf("  %-28s p%g = %.6g  (n=%zu, %zu beyond%s)\n", label.c_str(), q,
              value, n, beyond,
              beyond < 10 && q > 50.0 ? "; UNDER-SAMPLED tail" : "");
  return value;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Request> make_requests(const Graph& graph, uint64_t seed,
                                   size_t count) {
  Rng rng(seed);
  std::vector<Request> requests(count);
  for (Request& r : requests) {
    r.feeds = models::make_random_feeds(graph, rng);
    r.expected = evaluate_graph(graph, r.feeds);
  }
  return requests;
}

bool outputs_match(const std::vector<Tensor>& got,
                   const std::vector<Tensor>& expected) {
  if (got.size() != expected.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!Tensor::allclose(got[i], expected[i], 1e-3f, 1e-4f)) return false;
  }
  return true;
}

serve::BatchedGraphFactory traced_factory(const std::string& name, bool tiny,
                                          uint64_t weight_seed) {
  return [name, tiny, weight_seed](int64_t batch) {
    Span span("models.build");
    return models::build_by_name_batched(name, batch, tiny, weight_seed);
  };
}

CacheCounts CacheCounts::now() {
  const CompileCache::Stats c = CompileCache::instance().stats();
  const ProfileCache::Stats p = ProfileCache::instance().stats();
  return {c.hits, c.misses, p.hits, p.misses};
}

CacheCounts CacheCounts::since(const CacheCounts& before) const {
  return {compile_hits - before.compile_hits,
          compile_misses - before.compile_misses,
          profile_hits - before.profile_hits,
          profile_misses - before.profile_misses};
}

double CacheCounts::compile_hit_ratio() const {
  const uint64_t total = compile_hits + compile_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(compile_hits) /
                          static_cast<double>(total);
}

double CacheCounts::profile_hit_ratio() const {
  const uint64_t total = profile_hits + profile_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(profile_hits) /
                          static_cast<double>(total);
}

void clear_caches() {
  CompileCache::instance().clear();
  ProfileCache::instance().clear();
}

double modeled_s(const ExecutionPlan& plan) {
  // The serving workers' device pair (serve/fleet.cpp); noise off, so the
  // makespan depends on calibration only.
  DevicePair devices = make_default_device_pair(42 ^ 0x5EEDFACEull);
  SimExecutor executor(devices);
  return executor.run_latency_only(plan, /*with_noise=*/false);
}

const std::vector<std::string>& tiny_models() {
  static const std::vector<std::string> kModels = {"siamese", "mtdnn", "dlrm"};
  return kModels;
}

std::unique_ptr<serve::ModelRegistry> make_tiny_registry(uint64_t weight_seed) {
  serve::ModelRegistryOptions options;
  options.max_batch = kFleetMaxBatch;
  auto registry = std::make_unique<serve::ModelRegistry>(options);
  for (const std::string& name : tiny_models()) {
    Span span("serve.register");
    const int id = registry->register_model(
        name, traced_factory(name, /*tiny=*/true, weight_seed));
    for (int64_t b = 1; b <= kFleetMaxBatch; ++b) {
      registry->model(id).plan_for_batch(b);
    }
  }
  return registry;
}

}  // namespace perfbench
