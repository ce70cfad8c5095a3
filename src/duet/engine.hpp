#pragma once

// DuetEngine — the public entry point of the library (paper Fig. 6): given a
// model graph, it (1) partitions it into coarse-grained phased subgraphs,
// (2) profiles each subgraph's compiler-optimized code on both devices,
// (3) runs the greedy-correction scheduler, and (4) instantiates the
// heterogeneous executor for the chosen placement. If the best heterogeneous
// schedule is not meaningfully better than the best single device, DUET
// falls back to single-device execution (paper §I and §VI-E).
//
// Typical use:
//   Graph model = models::build_wide_deep();
//   DuetEngine engine(std::move(model));
//   auto feeds = models::make_random_feeds(engine.model(), rng);
//   ExecutionResult out = engine.infer(feeds);

#include <memory>

#include "duet/baseline.hpp"
#include "profile/profiler.hpp"
#include "runtime/executor.hpp"
#include "sched/scheduler.hpp"

namespace duet {

struct DuetOptions {
  std::string scheduler = "greedy-correction";
  PartitionOptions partition;
  ProfileOptions profile;
  CompileOptions compile = CompileOptions::compiler_defaults();
  // Heterogeneous execution must beat the best single device by this factor
  // or DUET falls back (guards against paying PCIe traffic for nothing).
  double fallback_margin = 0.02;
  bool enable_fallback = true;
  uint64_t seed = 42;
  // When non-empty, profiling statistics persist to
  // <dir>/profile_cache.v1.txt, keyed by the calibration fingerprint of the
  // device pair: a warm file makes repeated runs skip profiling entirely,
  // and recalibration invalidates it. Empty keeps the cache in-memory only.
  std::string profile_cache_dir;
};

struct DuetReport {
  std::vector<SubgraphProfile> profiles;
  ScheduleResult schedule;
  double est_hetero_s = 0.0;      // scheduler's estimate
  double est_single_cpu_s = 0.0;  // whole-model op-in-sequence on CPU
  double est_single_gpu_s = 0.0;  // ... on GPU (incl. PCIe in/out)
  bool fell_back = false;
  DeviceKind fallback_device = DeviceKind::kGpu;

  std::string to_string(const Graph& model, const Partition& partition) const;
};

class DuetEngine {
 public:
  explicit DuetEngine(Graph model, DuetOptions options = {});

  const Graph& model() const { return model_; }
  const DuetOptions& options() const { return options_; }
  const Partition& partition() const { return partition_; }
  const DuetReport& report() const { return report_; }
  const ExecutionPlan& plan() const { return plan_; }
  DevicePair& devices() { return devices_; }
  const DevicePair& devices() const { return devices_; }

  // One inference: numeric outputs + modeled latency + timeline.
  ExecutionResult infer(const std::map<NodeId, Tensor>& feeds,
                        bool with_noise = false);

  // Modeled latency only (fast path for the 5000-run experiments).
  double latency(bool with_noise = false);

  // Same plan, real threads, wall-clock latency (correctness validation).
  ExecutionResult infer_threaded(const std::map<NodeId, Tensor>& feeds);

  // Builds (and, in checked mode, checks) a plan for a placement of the
  // engine's partition — the engine's own plan, and how the serving runtime
  // materializes an online-recalibrated placement before swapping it in.
  ExecutionPlan build_plan_for(const Placement& placement) const;

 private:
  Graph model_;
  DuetOptions options_;
  DevicePair devices_;
  Partition partition_;
  DuetReport report_;
  ExecutionPlan plan_;
  std::unique_ptr<SimExecutor> executor_;
  // When the fallback triggers, DUET runs the unpartitioned single-device
  // executable (TVM's own runtime), not the queue-based plan.
  std::unique_ptr<Baseline> fallback_;
};

}  // namespace duet
