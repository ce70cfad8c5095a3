// Multi-tenant fleet serving bench: plan-per-bucket efficacy, registry
// cache dedup, and weighted-fair shedding under overload, emitted as
// BENCH_10.json.
//
// One ModelRegistry holds wide-deep and dlrm at max_batch 64 (wide-deep's
// crossover certificates put a placement flip inside that range, so its
// bucket table is non-trivial; dlrm stays single-bucket — the honest
// control). A structural twin of wide-deep registered under a second name
// measures the PR-4 content-addressed dedup: its registration must be 100%
// compile-cache warm. The load sweep replays the same Poisson traces
// through the virtual-time fleet twin twice — per-bucket plans vs the
// single-plan baseline — at multiples of the baseline's max-batch
// capacity; the saturating cell is the efficacy gate. A final overloaded
// leg with per-tenant deadlines shows weighted-fair shedding: bronze sheds
// first, conservation (offered = completed + shed + rejected) holds per
// class.
//
// Runs argument-free; prints the tables and writes BENCH_10.json to the
// current directory (CI uploads it as an artifact and gates on it).
//
// Acceptance: the saturating cell must clear 1.2x baseline throughput OR
// cut p99 sojourn by >= 20%; the twin registration must be fully
// compile-cache warm; the nominal (0.5x) cell sheds <= 1% in every tenant
// class; gold never sheds more than bronze under overload.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "models/model_zoo.hpp"
#include "serve/model_registry.hpp"
#include "serve/simulator.hpp"
#include "serve/workload.hpp"

namespace {

using namespace duet;

constexpr int64_t kMaxBatch = 64;
constexpr int kWorkers = 2;
constexpr int kRequests = 2048;
constexpr double kRequiredThroughputRatio = 1.2;
constexpr double kMaxP99Ratio = 0.8;
constexpr double kMaxNominalShed = 0.01;

struct SweepCell {
  double offered_x = 0.0;
  double offered_qps = 0.0;
  serve::FleetSimStats bucketed;
  serve::FleetSimStats baseline;

  double throughput_ratio() const {
    return baseline.throughput_qps > 0.0
               ? bucketed.throughput_qps / baseline.throughput_qps
               : 0.0;
  }
  double p99_ratio() const {
    return baseline.sojourn.p99 > 0.0
               ? bucketed.sojourn.p99 / baseline.sojourn.p99
               : 0.0;
  }
};

std::string leg_json(const serve::FleetSimStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"throughput_qps\":%.2f,\"p50_s\":%.6f,\"p99_s\":%.6f,"
                "\"mean_batch\":%.2f,\"completed\":%llu,\"shed\":%llu,"
                "\"rejected\":%llu}",
                s.throughput_qps, s.sojourn.p50, s.sojourn.p99, s.mean_batch,
                static_cast<unsigned long long>(s.total.completed),
                static_cast<unsigned long long>(s.total.shed),
                static_cast<unsigned long long>(s.total.rejected));
  return buf;
}

std::string tenant_json(const serve::FleetTenantStats& t) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"offered\":%llu,\"completed\":%llu,"
                "\"shed\":%llu,\"rejected\":%llu,\"shed_rate\":%.4f}",
                t.name.c_str(),
                static_cast<unsigned long long>(t.admission.offered),
                static_cast<unsigned long long>(t.admission.completed),
                static_cast<unsigned long long>(t.admission.shed),
                static_cast<unsigned long long>(t.admission.rejected),
                t.admission.shed_rate());
  return buf;
}

bool conserved(const serve::FleetSimStats& s) {
  for (const serve::FleetTenantStats& t : s.tenants) {
    if (t.admission.offered != t.admission.completed + t.admission.shed +
                                   t.admission.rejected) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bool ok = true;

  serve::ModelRegistryOptions ropts;
  ropts.max_batch = kMaxBatch;
  serve::ModelRegistry registry(ropts);
  bench::header("fleet registry: wide-deep + dlrm + structural twin");
  registry.register_model("wide-deep", models::zoo_batched_factory("wide-deep"));
  registry.register_model("dlrm", models::zoo_batched_factory("dlrm"));
  // The twin shares every subgraph with wide-deep byte-for-byte, so its
  // registration must ride the content-addressed caches end to end.
  registry.register_model("wide-deep-twin",
                          models::zoo_batched_factory("wide-deep"));
  const serve::RegistryCacheStats& cache = registry.cache_stats();
  std::printf("%s", cache.to_string().c_str());
  const serve::RegistrationCacheDelta& twin = cache.registrations.back();
  const double twin_hit_rate = twin.compile_hit_rate();
  std::printf("twin registration: compile hit rate %.3f, %llu profile misses\n",
              twin_hit_rate,
              static_cast<unsigned long long>(twin.profile_misses));

  serve::ResidentModel& demo = registry.model(0);  // wide-deep
  const double base_maxb_s = demo.baseline_service_s(kMaxBatch);
  const double bucket_maxb_s = demo.modeled_service_s(kMaxBatch);
  const double capacity_qps =
      kWorkers * static_cast<double>(kMaxBatch) / base_maxb_s;
  std::printf(
      "wide-deep buckets %s: service@%lld bucketed %.3f ms vs baseline %.3f "
      "ms; baseline capacity %.1f qps\n",
      buckets_to_string(demo.buckets()).c_str(),
      static_cast<long long>(kMaxBatch), bucket_maxb_s * 1e3,
      base_maxb_s * 1e3, capacity_qps);

  const std::vector<serve::TenantClass> tenants =
      serve::default_tenant_classes(3);
  const auto bucketed_service =
      [&registry](const std::vector<serve::FleetRequest>& batch) {
        return registry.model(batch.front().model)
            .modeled_service_s(static_cast<int64_t>(batch.size()));
      };
  const auto baseline_service =
      [&registry](const std::vector<serve::FleetRequest>& batch) {
        return registry.model(batch.front().model)
            .baseline_service_s(static_cast<int64_t>(batch.size()));
      };

  // Load sweep on the bucket-rich model, no deadlines: the two legs replay
  // identical traces, so the ratios isolate the plan-per-bucket effect.
  bench::header("plan-per-bucket load sweep: wide-deep");
  std::printf("%8s %12s %14s %14s %12s %10s\n", "offered", "offered qps",
              "bucketed qps", "baseline qps", "throughput x", "p99 ratio");
  const std::vector<double> kLoads = {0.5, 1.0, 2.0, 3.0};
  std::vector<SweepCell> cells;
  for (double load : kLoads) {
    SweepCell c;
    c.offered_x = load;
    c.offered_qps = load * capacity_qps;
    Rng rng(1234);  // same arrival stream shape per cell rate
    const std::vector<double> arrivals =
        serve::poisson_trace(c.offered_qps, kRequests, rng);
    std::vector<serve::FleetSimRequest> reqs;
    reqs.reserve(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
      serve::FleetSimRequest r;
      r.arrival_s = arrivals[i];
      r.tenant = static_cast<int>(i % tenants.size());
      r.model = 0;  // wide-deep
      reqs.push_back(r);
    }
    serve::FleetSimConfig sim;
    sim.workers = kWorkers;
    sim.queue_capacity = 512;
    sim.tenants = tenants;
    sim.max_batch = kMaxBatch;
    c.bucketed = serve::simulate_fleet(reqs, bucketed_service, sim);
    c.baseline = serve::simulate_fleet(reqs, baseline_service, sim);
    std::printf("%7.1fx %12.1f %14.1f %14.1f %11.2fx %10.2f\n", load,
                c.offered_qps, c.bucketed.throughput_qps,
                c.baseline.throughput_qps, c.throughput_ratio(),
                c.p99_ratio());
    if (!conserved(c.bucketed) || !conserved(c.baseline)) {
      std::printf("ERROR: per-tenant conservation violated at %.1fx\n", load);
      ok = false;
    }
    cells.push_back(c);
  }
  const SweepCell& saturated = cells.back();
  const SweepCell& nominal = cells.front();
  double nominal_worst_shed = 0.0;
  for (const serve::FleetTenantStats& t : nominal.bucketed.tenants) {
    nominal_worst_shed = std::max(nominal_worst_shed, t.admission.shed_rate());
  }

  // Overload with per-tenant deadlines across both models: weighted-fair
  // shedding in action. Gold (highest weight) must never shed more than
  // bronze.
  bench::header("weighted-fair shedding: 2x overload, deadlines on");
  const double mixed_deadline_s = 12.0 * demo.baseline_service_s(1);
  const std::vector<serve::TenantClass> strict_tenants =
      serve::default_tenant_classes(3, mixed_deadline_s);
  // Coalescing is capped low here: giant cross-tenant batches average the
  // classes together, while small batches make the weighted pickup order —
  // and therefore who waits past their deadline — visible. Overload is
  // relative to what the bucketed plans sustain at that cap, so the pool
  // genuinely cannot keep up and the shed ordering is the policy's.
  const int64_t kFairBatch = 8;
  const double mixed_service_s =
      (demo.modeled_service_s(kFairBatch) +
       registry.model(1).modeled_service_s(kFairBatch)) /
      2.0;
  const double mixed_capacity_qps =
      kWorkers * static_cast<double>(kFairBatch) / mixed_service_s;
  const double mixed_qps = 2.0 * mixed_capacity_qps;
  Rng mixed_rng(4321);
  const std::vector<double> mixed_arrivals =
      serve::poisson_trace(mixed_qps, kRequests, mixed_rng);
  std::vector<serve::FleetSimRequest> mixed_reqs;
  mixed_reqs.reserve(mixed_arrivals.size());
  for (size_t i = 0; i < mixed_arrivals.size(); ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = mixed_arrivals[i];
    r.tenant = static_cast<int>(i % strict_tenants.size());
    r.model = static_cast<int>(i % 2);  // wide-deep / dlrm
    mixed_reqs.push_back(r);
  }
  serve::FleetSimConfig mixed_sim;
  mixed_sim.workers = kWorkers;
  mixed_sim.queue_capacity = 512;
  mixed_sim.tenants = strict_tenants;
  mixed_sim.max_batch = kFairBatch;
  const serve::FleetSimStats fairness =
      serve::simulate_fleet(mixed_reqs, bucketed_service, mixed_sim);
  double gold_shed = 0.0;
  double bronze_shed = 0.0;
  for (const serve::FleetTenantStats& t : fairness.tenants) {
    std::printf("  tenant %-8s offered %5llu completed %5llu shed %5llu "
                "rejected %5llu (shed %.2f%%)\n",
                t.name.c_str(),
                static_cast<unsigned long long>(t.admission.offered),
                static_cast<unsigned long long>(t.admission.completed),
                static_cast<unsigned long long>(t.admission.shed),
                static_cast<unsigned long long>(t.admission.rejected),
                100.0 * t.admission.shed_rate());
    if (t.name == "gold") gold_shed = t.admission.shed_rate();
    if (t.name == "bronze") bronze_shed = t.admission.shed_rate();
  }
  const bool priority_ok = gold_shed <= bronze_shed;
  const bool fairness_conserved = conserved(fairness);
  if (!fairness_conserved) {
    std::printf("ERROR: per-tenant conservation violated in fairness leg\n");
    ok = false;
  }

  // --- BENCH_10.json ---------------------------------------------------
  std::string models_json;
  for (size_t m = 0; m < registry.size(); ++m) {
    serve::ResidentModel& rm = registry.model(static_cast<int>(m));
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"buckets\":\"%s\","
                  "\"service_b1_s\":%.6f,\"bucketed_service_maxb_s\":%.6f,"
                  "\"baseline_service_maxb_s\":%.6f}",
                  rm.name().c_str(), buckets_to_string(rm.buckets()).c_str(),
                  rm.modeled_service_s(1), rm.modeled_service_s(kMaxBatch),
                  rm.baseline_service_s(kMaxBatch));
    if (!models_json.empty()) models_json += ",";
    models_json += buf;
  }
  std::string sweep_json;
  for (const SweepCell& c : cells) {
    char head[128];
    std::snprintf(head, sizeof(head),
                  "{\"offered_x\":%.2f,\"offered_qps\":%.2f,", c.offered_x,
                  c.offered_qps);
    char tail[128];
    std::snprintf(tail, sizeof(tail),
                  ",\"throughput_ratio\":%.3f,\"p99_ratio\":%.3f}",
                  c.throughput_ratio(), c.p99_ratio());
    if (!sweep_json.empty()) sweep_json += ",";
    sweep_json += std::string(head) + "\"bucketed\":" + leg_json(c.bucketed) +
                  ",\"baseline\":" + leg_json(c.baseline) + tail;
  }
  std::string fairness_tenants_json;
  for (const serve::FleetTenantStats& t : fairness.tenants) {
    if (!fairness_tenants_json.empty()) fairness_tenants_json += ",";
    fairness_tenants_json += tenant_json(t);
  }

  std::FILE* out = std::fopen("BENCH_10.json", "w");
  if (out == nullptr) {
    std::printf("ERROR: cannot write BENCH_10.json\n");
    return 1;
  }
  std::fprintf(
      out,
      "{\"max_batch\":%lld,\"workers\":%d,\"requests\":%d,"
      "\"models\":[%s],"
      "\"registry\":{\"compile_hits\":%llu,\"compile_misses\":%llu,"
      "\"profile_hits\":%llu,\"profile_misses\":%llu,"
      "\"compile_dedup_ratio\":%.4f},"
      "\"twin\":{\"model\":\"%s\",\"compile_hits\":%llu,"
      "\"compile_misses\":%llu,\"profile_misses\":%llu,"
      "\"compile_hit_rate\":%.4f},"
      "\"sweep\":[%s],"
      "\"fairness\":{\"offered_qps\":%.2f,\"deadline_s\":%.6f,"
      "\"tenants\":[%s],\"conservation_ok\":%s,\"priority_ok\":%s},"
      "\"gate\":{\"required_throughput_ratio\":%.2f,\"max_p99_ratio\":%.2f,"
      "\"throughput_ratio\":%.3f,\"p99_ratio\":%.3f,"
      "\"twin_compile_hit_rate\":%.4f,\"nominal_worst_shed\":%.4f}}\n",
      static_cast<long long>(kMaxBatch), kWorkers, kRequests,
      models_json.c_str(),
      static_cast<unsigned long long>(cache.compile_hits),
      static_cast<unsigned long long>(cache.compile_misses),
      static_cast<unsigned long long>(cache.profile_hits),
      static_cast<unsigned long long>(cache.profile_misses),
      cache.compile_dedup_ratio(), twin.model.c_str(),
      static_cast<unsigned long long>(twin.compile_hits),
      static_cast<unsigned long long>(twin.compile_misses),
      static_cast<unsigned long long>(twin.profile_misses), twin_hit_rate,
      sweep_json.c_str(), mixed_qps, mixed_deadline_s,
      fairness_tenants_json.c_str(), fairness_conserved ? "true" : "false",
      priority_ok ? "true" : "false", kRequiredThroughputRatio, kMaxP99Ratio,
      saturated.throughput_ratio(), saturated.p99_ratio(), twin_hit_rate,
      nominal_worst_shed);
  std::fclose(out);
  std::printf("\nwrote BENCH_10.json\n");

  if (saturated.throughput_ratio() < kRequiredThroughputRatio &&
      saturated.p99_ratio() > kMaxP99Ratio) {
    std::printf(
        "ERROR: plan-per-bucket gate failed: %.2fx throughput (< %.1fx) and "
        "p99 ratio %.2f (> %.2f)\n",
        saturated.throughput_ratio(), kRequiredThroughputRatio,
        saturated.p99_ratio(), kMaxP99Ratio);
    ok = false;
  }
  if (twin_hit_rate < 0.999) {
    std::printf("ERROR: twin registration compile hit rate %.3f below 1.0\n",
                twin_hit_rate);
    ok = false;
  }
  if (nominal_worst_shed > kMaxNominalShed) {
    std::printf("ERROR: nominal-load shed rate %.2f%% above the %.0f%% bar\n",
                100.0 * nominal_worst_shed, 100.0 * kMaxNominalShed);
    ok = false;
  }
  if (!priority_ok) {
    std::printf("ERROR: gold shed %.2f%% exceeds bronze %.2f%% under "
                "overload\n",
                100.0 * gold_shed, 100.0 * bronze_shed);
    ok = false;
  }
  return ok ? 0 : 1;
}
