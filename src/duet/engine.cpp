#include "duet/engine.hpp"

#include <sstream>

#include "analysis/lint/lint.hpp"
#include "analysis/plan_validator.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "device/interconnect.hpp"
#include "duet/baseline.hpp"
#include "profile/profile_cache.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {

std::string DuetReport::to_string(const Graph& model,
                                  const Partition& partition) const {
  std::ostringstream os;
  os << "DUET report for \"" << model.name() << "\"\n";
  os << partition.to_string(model);
  os << "  schedule (" << schedule.placement.to_string() << ")\n";
  os << "  est hetero   " << human_time(est_hetero_s) << "\n";
  os << "  est TVM-CPU  " << human_time(est_single_cpu_s) << "\n";
  os << "  est TVM-GPU  " << human_time(est_single_gpu_s) << "\n";
  if (fell_back) {
    os << "  -> fell back to single-device execution on "
       << device_kind_name(fallback_device) << "\n";
  } else {
    os << "  -> heterogeneous execution selected\n";
  }
  return os.str();
}

DuetEngine::DuetEngine(Graph model, DuetOptions options)
    : model_(std::move(model)),
      options_(std::move(options)),
      devices_(make_default_device_pair(options_.seed)) {
  model_.validate();

  // Compiler-awareness requires the profiler to measure exactly the code
  // the plan will run: one compile configuration end to end.
  options_.profile.compile = options_.compile;

  // Engine-level pipeline spans: one per DUET step, nesting the finer spans
  // emitted inside the partitioner/profiler/scheduler/plan themselves.
  const bool telemetry_on = telemetry::enabled();
  telemetry::ScopedSpan pipeline_span(
      telemetry_on ? "duet-pipeline" : std::string(), "engine", model_.name());

  // Every constant payload is hashed once per engine: the profiler's
  // subgraph fingerprints and the whole-model fingerprint share this memo,
  // and the fingerprints are handed down to the compile-cache lookups. The
  // memo lives only in this constructor, while model_ and partition_ keep
  // alive every buffer it has seen.
  PayloadDigestMemo digests;

  // (1) Coarse-grained phased partitioning.
  {
    telemetry::ScopedSpan span(telemetry_on ? "partition" : std::string(),
                               "engine", model_.name());
    partition_ = partition_phased(model_, options_.partition);
  }
  if (verification_enabled()) {
    verify_partition(model_, partition_)
        .throw_if_failed("partitioner produced an invalid partition of \"" +
                         model_.name() + "\"");
  }

  // (2) Compiler-aware profiling of every subgraph on both devices, served
  // through the content-addressed ProfileCache (optionally disk-backed).
  {
    telemetry::ScopedSpan span(telemetry_on ? "profile" : std::string(),
                               "engine", model_.name());
    if (!options_.profile_cache_dir.empty()) {
      ProfileCache::instance().open_disk(
          options_.profile_cache_dir + "/profile_cache.v1.txt",
          calibration_fingerprint(devices_));
    }
    Profiler profiler(devices_);
    report_.profiles = profiler.profile_partition(partition_, model_,
                                                  options_.profile, &digests);
    if (!options_.profile_cache_dir.empty()) {
      ProfileCache::instance().flush();
    }
  }
  // Profiling consumes a data-dependent number of device noise draws — zero
  // when the ProfileCache is warm. Re-derive the devices (same calibration,
  // fresh seed-determined rng streams) so execution noise is identical
  // whether profiling ran or was served from the cache. The xor keeps the
  // execution stream distinct from the one profiling just sampled.
  devices_ = make_default_device_pair(options_.seed ^ 0x5EEDFACEull);

  // (3) Subgraph scheduling.
  LatencyEvaluator evaluator(partition_, model_, report_.profiles,
                             devices_.link->params());
  Rng sched_rng(options_.seed + 1000);
  SchedulingContext ctx;
  ctx.partition = &partition_;
  ctx.profiles = &report_.profiles;
  ctx.evaluator = &evaluator;
  ctx.rng = &sched_rng;
  {
    telemetry::ScopedSpan span(telemetry_on ? "schedule" : std::string(),
                               "engine", model_.name());
    std::unique_ptr<Scheduler> scheduler = make_scheduler(options_.scheduler);
    report_.schedule = scheduler->schedule(ctx);
  }
  report_.est_hetero_s = report_.schedule.est_latency_s;

  // (4) Fallback decision against the single-device baselines.
  const GraphFingerprint model_fingerprint = fingerprint_graph(model_, &digests);
  {
    telemetry::ScopedSpan span(telemetry_on ? "baseline-estimate" : std::string(),
                               "engine", model_.name());
    Baseline cpu(model_, BaselineKind::kTvmCpu, devices_, &model_fingerprint);
    Baseline gpu(model_, BaselineKind::kTvmGpu, devices_, &model_fingerprint);
    report_.est_single_cpu_s = cpu.latency(false);
    report_.est_single_gpu_s = gpu.latency(false);
  }
  const double best_single =
      std::min(report_.est_single_cpu_s, report_.est_single_gpu_s);
  report_.fallback_device = report_.est_single_cpu_s <= report_.est_single_gpu_s
                                ? DeviceKind::kCpu
                                : DeviceKind::kGpu;
  if (options_.enable_fallback &&
      report_.est_hetero_s >= best_single * (1.0 - options_.fallback_margin)) {
    report_.fell_back = true;
    telemetry::counter("engine.fallbacks").add(1);
    report_.schedule.placement =
        Placement(partition_.subgraphs.size(), report_.fallback_device);
    report_.schedule.est_latency_s = best_single;
    // Fallback executes the unpartitioned single-device code, exactly like
    // the TVM baseline it is falling back to.
    fallback_ = std::make_unique<Baseline>(
        model_,
        report_.fallback_device == DeviceKind::kCpu ? BaselineKind::kTvmCpu
                                                    : BaselineKind::kTvmGpu,
        devices_, &model_fingerprint);
  }

  // (5) Build the execution plan for the chosen placement, checked before
  // anything executes.
  plan_ = build_plan_for(report_.schedule.placement);
  executor_ = std::make_unique<SimExecutor>(devices_);

  DUET_LOG_INFO << "DUET ready: " << partition_.subgraphs.size() << " subgraphs, "
                << (report_.fell_back ? "single-device fallback"
                                      : "heterogeneous schedule")
                << ", est " << human_time(report_.schedule.est_latency_s);
}

ExecutionResult DuetEngine::infer(const std::map<NodeId, Tensor>& feeds,
                                  bool with_noise) {
  if (fallback_ != nullptr) {
    Baseline::Result br = fallback_->infer(feeds, with_noise);
    ExecutionResult r;
    r.outputs = std::move(br.outputs);
    r.latency_s = br.latency_s;
    r.timeline.add({TimelineEvent::Kind::kExec, 0, report_.fallback_device,
                    "fallback:" + model_.name(), 0.0, br.latency_s});
    return r;
  }
  return executor_->run(plan_, feeds, with_noise);
}

double DuetEngine::latency(bool with_noise) {
  if (fallback_ != nullptr) return fallback_->latency(with_noise);
  return executor_->run_latency_only(plan_, with_noise);
}

ExecutionResult DuetEngine::infer_threaded(const std::map<NodeId, Tensor>& feeds) {
  ThreadedExecutor threaded(devices_);
  return threaded.run(plan_, feeds);
}

ExecutionPlan DuetEngine::build_plan_for(const Placement& placement) const {
  // Checked mode guards the build against a bad scheduler or recalibration,
  // then runs the plan checker (validators, race checker, lint).
  if (verification_enabled()) {
    verify_placement(placement, partition_)
        .throw_if_failed("placement for \"" + model_.name() + "\" is invalid");
  }
  std::vector<GraphFingerprint> fingerprints;
  fingerprints.reserve(report_.profiles.size());
  for (const SubgraphProfile& p : report_.profiles) {
    fingerprints.push_back(p.fingerprint);
  }
  ExecutionPlan plan = ExecutionPlan::build(model_, partition_, placement,
                                            devices_, options_.compile,
                                            fingerprints);
  lint::check_plan(plan,
                   "execution plan for \"" + model_.name() + "\" is invalid");
  return plan;
}

}  // namespace duet
