// compile-zoo: the compile path — graph construction, passes, partition,
// profile, schedule, crossover buckets, plan builds and checked mode. A cold
// ModelRegistry (max_batch 16, crossover buckets on) registers six
// paper-size models and builds the plan of every bucket; the same factories
// are then registered again, into a fresh registry, over the warm compile
// and profile caches. vgg16 and full-size dlrm are left out: their graphs alone
// take 15 s and 5 s to build, and vgg16 peaks at 3.4 GB RSS.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace duet;

namespace {

const char* const kModels[] = {"wide-deep", "siamese",   "mtdnn",
                               "resnet50",  "inception", "squeezenet"};
constexpr int64_t kMaxBatch = 16;
// bench/baselines/BENCH_10.json: the paper-harness figure this benchmark's
// engine configuration must reproduce.
const char* const kBaselinePath = "bench/baselines/BENCH_10.json";

// Registers every model and builds each bucket's plan. Returns each
// registration's wall time, in kModels order.
std::vector<double> register_zoo(serve::ModelRegistry& registry, uint64_t seed,
                                 Outcome& outcome) {
  std::vector<double> seconds;
  for (const char* name : kModels) {
    ++outcome.attempted;
    const double t0 = now_s();
    try {
      Span span("serve.register");
      const int id =
          registry.register_model(name, traced_factory(name, false, seed));
      serve::ResidentModel& model = registry.model(id);
      for (const BatchBucket& bucket : model.buckets()) {
        Span plan_span("serve.plan_for_batch");
        model.plan_for_batch(bucket.rep());
      }
    } catch (const std::exception& e) {
      ++outcome.failed;
      std::printf("  registering %s failed: %s\n", name, e.what());
    }
    seconds.push_back(now_s() - t0);
  }
  return seconds;
}

// Noise-free makespan of every bucket plan, summed over the registry.
double modeled_ms(serve::ModelRegistry& registry) {
  double ms = 0.0;
  for (size_t m = 0; m < registry.size(); ++m) {
    serve::ResidentModel& model = registry.model(static_cast<int>(m));
    for (const BatchBucket& bucket : model.buckets()) {
      ms += 1e3 * modeled_s(*model.plan_for_batch(bucket.rep()));
    }
  }
  return ms;
}

// service_b1_s of wide-deep in the committed BENCH_10 baseline; < 0 when absent.
double baseline_wide_deep_b1_s() {
  std::ifstream in(kBaselinePath);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const size_t model = json.find("\"name\":\"wide-deep\"");
  const std::string key = "\"service_b1_s\":";
  const size_t at = model == std::string::npos ? model : json.find(key, model);
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

}  // namespace

Result run_compile_zoo(const Args& args) {
  Result result;
  Outcome& outcome = result.outcome;
  serve::ModelRegistryOptions options;
  options.max_batch = kMaxBatch;
  options.crossover_buckets = true;
  std::printf("compile-zoo: 1 thread, max_batch %lld, seed %llu\n",
              static_cast<long long>(kMaxBatch),
              static_cast<unsigned long long>(args.seed));

  // Set-up is the cold pass: it writes the compile and profile caches.
  const CacheCounts cold_before = CacheCounts::now();
  double cold_modeled_ms = 0.0;
  {
    serve::ModelRegistry cold_registry(options);
    {
      Span span("setup");
      register_zoo(cold_registry, args.seed, outcome);
    }
    cold_modeled_ms = modeled_ms(cold_registry);
  }
  const double setup_s = now_s();
  const CacheCounts cold = CacheCounts::now().since(cold_before);

  // Timed phase: warm passes — the same factories into a fresh registry
  // over the populated caches — until time is up. Only the last registry is
  // kept, so peak memory holds one zoo plus the caches.
  const CacheCounts warm_before = CacheCounts::now();
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<double> pass_s;
  std::vector<double> all_s;
  std::vector<std::vector<double>> model_s(std::size(kModels));
  const double start = now_s();
  do {
    registry.reset();
    registry = std::make_unique<serve::ModelRegistry>(options);
    const double t0 = now_s();
    Span span("recompile");
    const std::vector<double> seconds = register_zoo(*registry, args.seed, outcome);
    pass_s.push_back(now_s() - t0);
    for (size_t m = 0; m < seconds.size(); ++m) {
      model_s[m].push_back(seconds[m]);
      all_s.push_back(seconds[m]);
    }
  } while (now_s() - start < args.seconds);
  const double elapsed = now_s() - start;
  const CacheCounts warm = CacheCounts::now().since(warm_before);
  const double rss_mb = peak_rss_mb();

  if (modeled_ms(*registry) != cold_modeled_ms) {
    outcome.problem("warm and cold registrations model different makespans");
  }
  const double wide_deep_b1 = registry->model(0).modeled_service_s(1);
  const double baseline_b1 = baseline_wide_deep_b1_s();
  std::printf("cross-check: wide-deep modeled_service_s(1) = %.6f s, %s "
              "service_b1_s = %.6f s\n",
              wide_deep_b1, kBaselinePath, baseline_b1);
  if (baseline_b1 < 0.0 || std::fabs(wide_deep_b1 - baseline_b1) > 5e-7) {
    outcome.problem("wide-deep batch-1 service time differs from BENCH_10");
  }

  std::printf("cold pass %.3f s (compile hit ratio %.3f); %zu warm pass(es) "
              "in %.3f s (compile hit ratio %.3f)\n",
              setup_s, cold.compile_hit_ratio(), pass_s.size(), elapsed,
              warm.compile_hit_ratio());
  for (size_t m = 0; m < std::size(kModels); ++m) {
    std::vector<double> ms;
    for (double s : model_s[m]) ms.push_back(1e3 * s);
    const double p50 = percentile(std::string(kModels[m]) + " register_ms", ms, 50);
    const std::string name = kModels[m];
    if (name == "siamese" || name == "mtdnn") {
      result.e2e.set(name + "_p50_ms", p50, "ms");
    }
  }
  std::vector<double> all_ms;
  for (double s : all_s) all_ms.push_back(1e3 * s);
  result.e2e.set("setup_s", setup_s, "s");
  result.e2e.set("recompile_s", median(pass_s), "s");
  result.e2e.set("throughput_rps", static_cast<double>(all_s.size()) / elapsed,
                 "1/s");
  result.e2e.set("latency_p50_ms", percentile("register_ms", all_ms, 50), "ms");
  result.e2e.set("latency_p99_ms", percentile("register_ms", all_ms, 99), "ms");
  result.e2e.set("modeled_ms", cold_modeled_ms, "ms-modeled");
  result.e2e.set("peak_rss_mb", rss_mb, "MB");

  if (args.trace) {
    Metrics& layers = result.layers;
    report_models_layer(layers);
    report_cache_ratios(cold, warm, layers);
    report_without_server(layers);
    std::vector<Request> requests;
    std::vector<std::shared_ptr<const ExecutionPlan>> plans;
    std::vector<ProbeModel> probes;
    requests.reserve(std::size(kModels));  // probes point into it
    for (size_t m = 0; m < std::size(kModels); ++m) {
      serve::ResidentModel& model = registry->model(static_cast<int>(m));
      requests.push_back(
          make_requests(model.engine().model(), args.seed * 31 + m, 1).front());
      plans.push_back(model.plan_for_batch(1));
      probes.push_back({model.name(), &model.engine().model(),
                        plans.back().get(), &requests.back()});
    }
    probe_execution(probes, /*reps=*/1, outcome, layers);
    probe_pipeline(probes, kMaxBatch, outcome, layers);
    std::unique_ptr<serve::ModelRegistry> tiny = make_tiny_registry(args.seed);
    probe_serving(*tiny, args.seed, outcome, layers);
  }
  return result;
}

}  // namespace perfbench
