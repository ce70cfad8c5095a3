// fleet-tiny: four closed-loop callers (caller c is tenant c mod 3: gold,
// silver, bronze) into one FleetServer with 2 workers and max_batch 8 over a
// registry of the tiny siamese, mtdnn and dlrm; callers rotate over the
// models. Kernels take microseconds, so admission, WFQ/EDF pick, coalescing,
// feed stacking and splitting, executor bookkeeping, futures and telemetry
// set the pace. Closed loop because open-loop tail latency on a shared
// 4-vCPU host does not repeat from run to run.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "layers.hpp"
#include "serve/fleet.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace duet;

namespace {

constexpr int kMaxCallers = 4;
constexpr int kWorkers = 2;
constexpr int kSetups = 15;      // cold set-ups; setup_s is the median
constexpr int kRecompiles = 40;  // warm re-registrations; recompile_s is the median
constexpr size_t kRequestsPerModel = 16;  // distinct inputs per model

struct Fleet {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::FleetServer> server;
};

serve::FleetOptions fleet_options() {
  serve::FleetOptions options;
  options.workers = kWorkers;
  options.max_batch = kFleetMaxBatch;
  options.tenants = serve::default_tenant_classes(3);
  return options;
}

// What one caller saw.
struct CallerLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> model_ms[3];
  std::vector<double> wait_ms;
  std::vector<double> service_ms;
  std::vector<double> handoff_us;
  uint64_t coalesced = 0;
  double last_done_s = 0.0;
};

void serve_one(serve::FleetServer& server, int model, int tenant,
               const Request& request, const std::vector<double>& modeled_by_batch,
               CallerLog& log) {
  ++log.attempted;
  serve::FleetResponse response;
  const double t0 = now_s();
  try {
    Span span("serve.request");
    response = server.submit(model, tenant, request.feeds).get();
  } catch (const std::exception& e) {
    ++log.failed;
    std::printf("  request failed: %s\n", e.what());
    return;
  }
  const double latency_s = now_s() - t0;
  log.last_done_s = t0 + latency_s;
  if (response.status != serve::RequestStatus::kOk ||
      !outputs_match(response.outputs, request.expected) ||
      response.modeled_latency_s !=
          modeled_by_batch[static_cast<size_t>(response.batch)]) {
    ++log.failed;
    return;
  }
  log.latency_ms.push_back(1e3 * latency_s);
  log.model_ms[model].push_back(1e3 * latency_s);
  log.wait_ms.push_back(1e3 * response.wall_wait_s);
  log.service_ms.push_back(1e3 * (response.wall_latency_s - response.wall_wait_s));
  log.handoff_us.push_back(1e6 * (latency_s - response.wall_latency_s));
  if (response.batch > 1) ++log.coalesced;
}

// Noise-free makespan of every plan the fleet can serve, by batch size.
std::vector<double> modeled_by_batch(serve::ResidentModel& model) {
  std::vector<double> out(static_cast<size_t>(model.max_batch()) + 1, 0.0);
  for (int64_t b = 1; b <= model.max_batch(); ++b) {
    out[static_cast<size_t>(b)] = modeled_s(*model.plan_for_batch(b));
  }
  return out;
}

std::vector<double> concat(const std::vector<CallerLog>& logs,
                           std::vector<double> CallerLog::*field) {
  std::vector<double> out;
  for (const CallerLog& log : logs) {
    out.insert(out.end(), (log.*field).begin(), (log.*field).end());
  }
  return out;
}

}  // namespace

Result run_fleet_tiny(const Args& args) {
  Result result;
  Outcome& outcome = result.outcome;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int callers = std::min(kMaxCallers, nproc);
  std::printf("fleet-tiny: %d closed-loop client threads (nproc %d), %d "
              "workers, max_batch %lld, seed %llu\n",
              callers, nproc, kWorkers, static_cast<long long>(kFleetMaxBatch),
              static_cast<unsigned long long>(args.seed));
  if (callers > nproc) outcome.problem("more client threads than CPUs");

  // Set-up, repeated from cold caches: registry with every batch-1..8 plan,
  // server start, one untimed request per model. References are computed
  // once, after the first registry exists, outside the timed set-up.
  std::vector<std::vector<Request>> requests;
  std::vector<std::vector<double>> modeled;
  std::vector<double> setup_samples;
  CacheCounts cold;
  Fleet fleet;
  for (int rep = 0; rep < kSetups; ++rep) {
    fleet.server.reset();  // before the registry it fronts
    fleet.registry.reset();
    clear_caches();
    const CacheCounts before = CacheCounts::now();
    double excluded_s = 0.0;
    const double t0 = now_s();
    {
      Span span("setup");
      fleet.registry = make_tiny_registry(args.seed);
      if (rep == 0) {
        cold = CacheCounts::now().since(before);
        const double ref_start = now_s();
        for (size_t m = 0; m < fleet.registry->size(); ++m) {
          serve::ResidentModel& model = fleet.registry->model(static_cast<int>(m));
          requests.push_back(make_requests(model.engine().model(),
                                           args.seed * 31 + m,
                                           kRequestsPerModel));
          modeled.push_back(modeled_by_batch(model));
        }
        excluded_s = now_s() - ref_start;
      }
      fleet.server = std::make_unique<serve::FleetServer>(
          *fleet.registry, fleet_options());
      CallerLog warmup;
      for (size_t m = 0; m < requests.size(); ++m) {
        serve_one(*fleet.server, static_cast<int>(m), 0, requests[m].front(),
                  modeled[m], warmup);
      }
      if (warmup.failed > 0) outcome.problem("warm-up request failed");
    }
    setup_samples.push_back(now_s() - t0 - excluded_s);
  }
  const double setup_s = median(setup_samples);
  std::printf("set-up: median %.4f s over %d cold set-ups\n", setup_s, kSetups);

  // Timed phase: every caller loops until the deadline.
  const uint64_t misses_before = CacheCounts::now().compile_misses;
  std::vector<CallerLog> logs(static_cast<size_t>(callers));
  const double start = now_s();
  const double deadline = start + args.seconds;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        CallerLog& log = logs[static_cast<size_t>(c)];
        const int tenant = c % 3;
        size_t model = static_cast<size_t>(c) % requests.size();
        size_t k = static_cast<size_t>(c);
        while (now_s() < deadline) {
          serve_one(*fleet.server, static_cast<int>(model), tenant,
                    requests[model][k % kRequestsPerModel], modeled[model], log);
          model = (model + 1) % requests.size();
          ++k;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  double end = start;
  for (const CallerLog& log : logs) {
    end = std::max(end, log.last_done_s);
    outcome.attempted += log.attempted;
    outcome.failed += log.failed;
  }
  const double elapsed = end - start;
  fleet.server->drain();
  const serve::FleetServerStats stats = fleet.server->stats();
  if (stats.total.rejected + stats.total.shed > 0) {
    std::printf("  rejected %llu, shed %llu\n",
                static_cast<unsigned long long>(stats.total.rejected),
                static_cast<unsigned long long>(stats.total.shed));
  }
  if (CacheCounts::now().compile_misses != misses_before) {
    outcome.problem("compile-cache misses during the timed phase");
  }
  const double rss_mb = peak_rss_mb();

  // Warm re-registration of the tiny fleet, repeated; recompile_s is the median.
  std::vector<double> recompile_samples;
  CacheCounts warm;
  for (int rep = 0; rep < kRecompiles; ++rep) {
    const CacheCounts before = CacheCounts::now();
    const double t0 = now_s();
    Span span("recompile");
    make_tiny_registry(args.seed);
    recompile_samples.push_back(now_s() - t0);
    warm = CacheCounts::now().since(before);
  }

  const std::vector<double> latency = concat(logs, &CallerLog::latency_ms);
  std::printf("timed phase: %.3f s, %llu requests, mean batch %.3f\n", elapsed,
              static_cast<unsigned long long>(latency.size()), stats.mean_batch);
  double per_model_p50[3] = {0.0, 0.0, 0.0};
  for (size_t m = 0; m < 3; ++m) {
    std::vector<double> samples;
    for (const CallerLog& log : logs) {
      samples.insert(samples.end(), log.model_ms[m].begin(), log.model_ms[m].end());
    }
    per_model_p50[m] = percentile(tiny_models()[m] + " latency_ms", samples, 50);
  }
  const double p50 = percentile("latency_ms", latency, 50);
  const double p99 = percentile("latency_ms", latency, 99);
  double modeled_ms = 0.0;
  for (const std::vector<double>& by_batch : modeled) {
    modeled_ms += 1e3 * (by_batch[1] + by_batch[static_cast<size_t>(kFleetMaxBatch)]);
  }

  result.e2e.set("setup_s", setup_s, "s");
  result.e2e.set("recompile_s", median(recompile_samples), "s");
  result.e2e.set("siamese_p50_ms", per_model_p50[0], "ms");
  result.e2e.set("mtdnn_p50_ms", per_model_p50[1], "ms");
  result.e2e.set("throughput_rps", static_cast<double>(latency.size()) / elapsed,
                 "1/s");
  result.e2e.set("latency_p50_ms", p50, "ms");
  result.e2e.set("latency_p99_ms", p99, "ms");
  result.e2e.set("modeled_ms", modeled_ms, "ms-modeled");
  result.e2e.set("peak_rss_mb", rss_mb, "MB");

  if (args.trace) {
    Metrics& layers = result.layers;
    report_models_layer(layers);
    report_cache_ratios(cold, warm, layers);
    const std::vector<double> wait = concat(logs, &CallerLog::wait_ms);
    layers.set("serve.queue_wait_p50_ms", percentile("queue wait ms", wait, 50), "ms");
    layers.set("serve.queue_wait_p99_ms", percentile("queue wait ms", wait, 99), "ms");
    layers.set("serve.service_p50_ms",
               percentile("service ms", concat(logs, &CallerLog::service_ms), 50),
               "ms");
    layers.set("serve.handoff_us",
               percentile("hand-off us", concat(logs, &CallerLog::handoff_us), 50),
               "us");
    double coalesced = 0.0;
    for (const CallerLog& log : logs) coalesced += static_cast<double>(log.coalesced);
    layers.set("serve.mean_batch", stats.mean_batch, "count");
    layers.set("serve.coalesced_ratio",
               coalesced / std::max<double>(1.0, static_cast<double>(latency.size())),
               "ratio");

    std::vector<ProbeModel> probes;
    std::vector<std::shared_ptr<const ExecutionPlan>> plans;
    for (size_t m = 0; m < requests.size(); ++m) {
      serve::ResidentModel& model = fleet.registry->model(static_cast<int>(m));
      plans.push_back(model.plan_for_batch(1));
      probes.push_back({model.name(), &model.engine().model(), plans.back().get(),
                        &requests[m].front()});
    }
    probe_execution(probes, /*reps=*/200, outcome, layers);
    probe_pipeline(probes, kFleetMaxBatch, outcome, layers);
    probe_serving(*fleet.registry, args.seed, outcome, layers);
  }
  return result;
}

}  // namespace perfbench
