// Serving load sweep: throughput and tail sojourn of the DUET serving
// runtime versus worker count and offered load, emitted as BENCH_5.json.
//
// Each model is scheduled once by the engine; per-request modeled service
// times are drawn from the plan's noisy latency distribution (one shared
// draw vector, so every sweep cell replays identical work). The runtime
// under test is the single-model server — the virtual-time twin
// simulate_fleet with one tenant and max_batch 1, where EDF under the
// uniform deadline is FIFO. The sequential
// baseline is the single-engine loop — one request in service at a time,
// back to back — and the sweep replays the same open-loop Poisson traces
// against 1/2/4/8 worker replicas at 0.5x/1.0x/2.0x of the pool's
// saturation rate, all in virtual time (the repo's benchmark convention:
// numbers depend on the calibrated cost models, not the build machine). A
// final bursty leg (flash-crowd trace with a deadline) shows the admission
// policy shedding under overload instead of collapsing.
//
// Runs argument-free; prints the table and writes BENCH_5.json to the
// current directory (CI uploads it as an artifact and gates on it).
//
// Acceptance: 4 workers at saturating load must clear 2x the sequential
// loop's throughput on every model, and nominal load must shed <= 1%.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "models/model_zoo.hpp"
#include "serve/simulator.hpp"
#include "serve/workload.hpp"

namespace {

using namespace duet;

constexpr int kRequests = 2000;
constexpr double kRequiredSpeedup4w = 2.0;
constexpr double kMaxNominalShed = 0.01;

struct Cell {
  int workers = 0;
  double offered_x = 0.0;  // multiple of the pool's saturation rate
  double offered_qps = 0.0;
  serve::FleetSimStats stats;
};

// One tenant, no coalescing: the single-model server's configuration.
serve::FleetSimConfig single_model(int workers, double deadline_s) {
  serve::FleetSimConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 128;
  cfg.max_batch = 1;
  cfg.tenants = {serve::TenantClass{"default", 1.0, deadline_s}};
  return cfg;
}

std::string cell_json(const Cell& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workers\":%d,\"offered_x\":%.2f,\"offered_qps\":%.2f,"
      "\"throughput_qps\":%.2f,\"p50_s\":%.6f,\"p99_s\":%.6f,"
      "\"shed_rate\":%.4f,\"reject_rate\":%.4f,\"busy_frac\":%.4f}",
      c.workers, c.offered_x, c.offered_qps, c.stats.throughput_qps,
      c.stats.sojourn.p50, c.stats.sojourn.p99, c.stats.total.shed_rate(),
      c.stats.total.reject_rate(), c.stats.worker_busy_frac);
  return buf;
}

}  // namespace

int main() {
  const std::vector<std::string> kModels = {"wide-deep", "mtdnn"};
  const std::vector<int> kWorkers = {1, 2, 4, 8};
  const std::vector<double> kLoads = {0.5, 1.0, 2.0};

  std::string models_json;
  double worst_speedup_4w = 1e300;
  double worst_nominal_shed = 0.0;
  bool ok = true;

  for (const std::string& name : kModels) {
    DuetEngine engine{models::build_by_name(name)};

    // One shared draw of noisy per-request service times; the sequential
    // baseline is this exact workload executed back to back on one engine.
    std::vector<double> service(kRequests);
    double total_s = 0.0;
    for (int i = 0; i < kRequests; ++i) {
      service[static_cast<size_t>(i)] = engine.latency(/*with_noise=*/true);
      total_s += service[static_cast<size_t>(i)];
    }
    const double mean_service_s = total_s / kRequests;
    const double sequential_qps = kRequests / total_s;
    // Each request replays its own draw: ids are trace indices.
    const auto service_of =
        [&service](const std::vector<serve::FleetRequest>& batch) {
          return service[batch.front().id];
        };
    const double deadline_s = 10.0 * mean_service_s;

    bench::header("serve load sweep: " + name);
    std::printf("sequential loop baseline: %.1f qps (mean service %.3f ms)\n",
                sequential_qps, mean_service_s * 1e3);
    std::printf("%8s %10s %12s %12s %10s %8s %8s\n", "workers", "offered",
                "offered qps", "qps", "p99 ms", "shed%", "reject%");

    std::vector<Cell> cells;
    double speedup_4w = 0.0;
    double nominal_shed_4w = 0.0;
    for (int workers : kWorkers) {
      const double saturation_qps = workers / mean_service_s;
      for (double load : kLoads) {
        Cell c;
        c.workers = workers;
        c.offered_x = load;
        c.offered_qps = load * saturation_qps;
        Rng rng(1234);  // same arrival stream shape per cell rate
        c.stats = serve::simulate_fleet(
            serve::single_model_requests(
                serve::poisson_trace(c.offered_qps, kRequests, rng)),
            service_of, single_model(workers, deadline_s));
        std::printf("%8d %9.1fx %12.1f %12.1f %10.3f %7.2f%% %7.2f%%\n",
                    workers, load, c.offered_qps, c.stats.throughput_qps,
                    c.stats.sojourn.p99 * 1e3,
                    100.0 * c.stats.total.shed_rate(),
                    100.0 * c.stats.total.reject_rate());
        if (workers == 4 && load == 2.0) {
          speedup_4w = c.stats.throughput_qps / sequential_qps;
        }
        if (workers == 4 && load == 0.5) {
          nominal_shed_4w = c.stats.total.shed_rate();
        }
        cells.push_back(c);
      }
    }
    std::printf("4 workers saturated: %.2fx the sequential loop\n", speedup_4w);
    worst_speedup_4w = std::min(worst_speedup_4w, speedup_4w);
    worst_nominal_shed = std::max(worst_nominal_shed, nominal_shed_4w);

    // Flash crowd: quiet 0.5x / burst 3x of a 4-worker pool, deadline on.
    Rng burst_rng(99);
    const double sat4 = 4.0 / mean_service_s;
    const std::vector<double> burst_arrivals = serve::bursty_trace(
        0.5 * sat4, 3.0 * sat4, 100.0 * mean_service_s, 0.4, kRequests,
        burst_rng);
    const serve::FleetSimStats burst =
        serve::simulate_fleet(serve::single_model_requests(burst_arrivals),
                              service_of, single_model(4, deadline_s));
    std::printf(
        "bursty (0.5x/3x flash crowd, 4 workers): %.1f qps, shed %.2f%%, "
        "reject %.2f%%, p99 %.3f ms\n",
        burst.throughput_qps, 100.0 * burst.total.shed_rate(),
        100.0 * burst.total.reject_rate(), burst.sojourn.p99 * 1e3);

    std::string sweep_json;
    for (const Cell& c : cells) {
      if (!sweep_json.empty()) sweep_json += ",";
      sweep_json += cell_json(c);
    }
    char head[512];
    std::snprintf(head, sizeof(head),
                  "{\"model\":\"%s\",\"mean_service_s\":%.6f,"
                  "\"sequential_qps\":%.2f,\"speedup_4w\":%.3f,"
                  "\"deadline_s\":%.6f,",
                  name.c_str(), mean_service_s, sequential_qps, speedup_4w,
                  deadline_s);
    char burst_json[256];
    std::snprintf(burst_json, sizeof(burst_json),
                  "\"burst\":{\"offered_qps\":%.2f,\"throughput_qps\":%.2f,"
                  "\"shed_rate\":%.4f,\"reject_rate\":%.4f,\"p99_s\":%.6f}",
                  serve::offered_qps(burst_arrivals), burst.throughput_qps,
                  burst.total.shed_rate(), burst.total.reject_rate(),
                  burst.sojourn.p99);
    if (!models_json.empty()) models_json += ",";
    models_json += std::string(head) + "\"sweep\":[" + sweep_json + "]," +
                   burst_json + "}";
  }

  std::FILE* out = std::fopen("BENCH_5.json", "w");
  if (out == nullptr) {
    std::printf("ERROR: cannot write BENCH_5.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\"requests\":%d,\"models\":[%s],"
               "\"gate\":{\"required_speedup_4w\":%.1f,"
               "\"worst_speedup_4w\":%.3f,\"max_nominal_shed\":%.2f,"
               "\"worst_nominal_shed\":%.4f}}\n",
               kRequests, models_json.c_str(), kRequiredSpeedup4w,
               worst_speedup_4w, kMaxNominalShed, worst_nominal_shed);
  std::fclose(out);
  std::printf("\nwrote BENCH_5.json\n");

  if (worst_speedup_4w < kRequiredSpeedup4w) {
    std::printf("ERROR: 4-worker speedup %.2fx below the %.1fx bar\n",
                worst_speedup_4w, kRequiredSpeedup4w);
    ok = false;
  }
  if (worst_nominal_shed > kMaxNominalShed) {
    std::printf("ERROR: nominal-load shed rate %.2f%% above the %.0f%% bar\n",
                100.0 * worst_nominal_shed, 100.0 * kMaxNominalShed);
    ok = false;
  }
  return ok ? 0 : 1;
}
