// Micro-benchmark of the scheduler-evaluation fast path and the content-
// addressed caches. Two measurements, emitted as BENCH_4.json:
//
//  1. evals/sec of LatencyEvaluator::evaluate (the shared heap-based list
//     scheduler + placement memo) vs evaluate_reference (the original
//     per-step O(n^2) scan) on a ~32-subgraph fan-out partition, replaying
//     an identical correction-sweep placement stream — the access pattern
//     greedy-correction and annealing actually generate, revisits included.
//     Two more legs isolate the list scheduler: evaluate() with the memo
//     off, and SimExecutor::run_latency_only on one plan of the stream.
//  2. Cold vs warm wall time of profiling the whole model zoo through the
//     ProfileCache, plus the warm hit rate.
//
// Runs argument-free; prints the table and writes BENCH_4.json to the
// current directory (CI uploads it as an artifact).

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "compiler/compile_cache.hpp"
#include "graph/builder.hpp"
#include "models/model_zoo.hpp"
#include "partition/partitioner.hpp"
#include "profile/profile_cache.hpp"
#include "profile/profiler.hpp"
#include "runtime/executor.hpp"
#include "sched/latency_model.hpp"

namespace {

using namespace duet;

// 31 parallel dense branches + a concat head: phased partitioning turns each
// branch into its own subgraph, landing the partition at 32 subgraphs — a
// size where the reference's per-step all-n scan visibly hurts.
Graph fanout_model(int branches) {
  GraphBuilder b("fanout", 5);
  const NodeId x = b.input(Shape{1, 256}, "x");
  std::vector<NodeId> heads;
  heads.reserve(static_cast<size_t>(branches));
  for (int i = 0; i < branches; ++i) {
    heads.push_back(
        b.dense(x, 96, "relu", "branch" + std::to_string(i) + ".fc"));
  }
  const NodeId join = b.concat(heads, 1);
  return b.finish({b.dense(join, 16, "", "head")});
}

// The placement stream of a correction search: sweep over all subgraphs,
// evaluate every single-flip neighbor of the current base, accept improving
// flips. Once the search converges, consecutive sweeps re-evaluate the same
// neighbors — the revisits the memo exists for. Decisions are driven by the
// reference evaluator so the stream is identical for both measurements.
std::vector<Placement> correction_stream(const LatencyEvaluator& eval,
                                         size_t n, int sweeps) {
  std::vector<Placement> stream;
  stream.reserve(static_cast<size_t>(sweeps) * n);
  Placement base(n, DeviceKind::kCpu);
  double best = eval.evaluate_reference(base);
  for (int s = 0; s < sweeps; ++s) {
    for (size_t i = 0; i < n; ++i) {
      Placement trial = base;
      const DeviceKind flipped = trial.of(static_cast<int>(i)) == DeviceKind::kCpu
                                     ? DeviceKind::kGpu
                                     : DeviceKind::kCpu;
      trial.set(static_cast<int>(i), flipped);
      stream.push_back(trial);
      const double t = eval.evaluate_reference(trial);
      if (t < best) {
        best = t;
        base = trial;
      }
    }
  }
  return stream;
}

struct EvalResult {
  double evals_per_sec = 0.0;
  double checksum = 0.0;
};

template <typename Fn>
EvalResult time_stream(const std::vector<Placement>& stream, int reps, Fn fn) {
  EvalResult r;
  WallTimer timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (const Placement& p : stream) r.checksum += fn(p);
  }
  const double elapsed = timer.elapsed();
  r.evals_per_sec =
      static_cast<double>(stream.size()) * reps / (elapsed > 0 ? elapsed : 1e-9);
  return r;
}

}  // namespace

int main() {
  // --- part 1: evaluator fast path vs reference -----------------------------
  Graph model = fanout_model(31);
  DevicePair devices = make_default_device_pair(7);
  const Partition partition = partition_phased(model);
  const size_t n = partition.subgraphs.size();

  Profiler profiler(devices);
  ProfileOptions popts;
  popts.runs = 1;
  popts.with_noise = false;
  const std::vector<SubgraphProfile> profiles =
      profiler.profile_partition(partition, model, popts);
  LatencyEvaluator eval(partition, model, profiles, devices.link->params());

  const int kSweeps = 40;
  const int kReps = 50;
  const std::vector<Placement> stream = correction_stream(eval, n, kSweeps);

  const EvalResult ref = time_stream(
      stream, kReps, [&](const Placement& p) { return eval.evaluate_reference(p); });
  const int64_t memo_base = eval.memo_hits();
  const int64_t evals_base = eval.evaluations();
  const EvalResult fast = time_stream(
      stream, kReps, [&](const Placement& p) { return eval.evaluate(p); });
  const double memo_hit_rate =
      static_cast<double>(eval.memo_hits() - memo_base) /
      static_cast<double>(eval.evaluations() - evals_base);
  const double speedup = fast.evals_per_sec / ref.evals_per_sec;
  eval.set_memo_enabled(false);
  const EvalResult nomemo = time_stream(
      stream, kReps, [&](const Placement& p) { return eval.evaluate(p); });

  // The simulated executor's time-only path (registry bucket probes call
  // it) on the stream's last placement, as many calls as the stream legs.
  const ExecutionPlan plan = ExecutionPlan::build(
      model, partition, stream.back(), devices, CompileOptions::compiler_defaults());
  SimExecutor executor(devices);
  const EvalResult latency_only = time_stream(stream, kReps, [&](const Placement&) {
    return executor.run_latency_only(plan, /*with_noise=*/false);
  });

  bench::header("scheduler evaluation fast path");
  std::printf("partition: %zu subgraphs | stream: %zu placements x %d reps\n", n,
              stream.size(), kReps);
  std::printf("reference (O(n^2) scan)   %12.0f evals/sec\n", ref.evals_per_sec);
  std::printf("fast (heaps + memo)       %12.0f evals/sec  (%.1fx, memo hit rate %.1f%%)\n",
              fast.evals_per_sec, speedup, 100.0 * memo_hit_rate);
  std::printf("fast, memo off             %12.0f evals/sec\n", nomemo.evals_per_sec);
  std::printf("SimExecutor latency-only  %12.0f evals/sec\n", latency_only.evals_per_sec);
  if (ref.checksum != fast.checksum || ref.checksum != nomemo.checksum) {
    std::printf("ERROR: checksum mismatch (%.17g vs %.17g vs %.17g)\n", ref.checksum,
                fast.checksum, nomemo.checksum);
    return 1;
  }

  // --- part 2: cold vs warm zoo profiling through the caches ----------------
  bench::header("profile cache cold vs warm (model zoo)");
  std::vector<Graph> graphs;
  std::vector<Partition> partitions;
  for (const std::string& name : models::zoo_model_names()) {
    graphs.push_back(models::build_by_name(name));
    partitions.push_back(partition_phased(graphs.back()));
  }
  ProfileOptions zoo_opts;
  zoo_opts.runs = 50;

  ProfileCache::instance().clear();
  ProfileCache::instance().reset_stats();
  CompileCache::instance().clear();
  const auto profile_zoo = [&]() {
    WallTimer timer;
    for (size_t i = 0; i < graphs.size(); ++i) {
      profiler.profile_partition(partitions[i], graphs[i], zoo_opts);
    }
    return timer.elapsed();
  };
  const double cold_wall_s = profile_zoo();
  const ProfileCache::Stats cold = ProfileCache::instance().stats();
  const double warm_wall_s = profile_zoo();
  const ProfileCache::Stats warm = ProfileCache::instance().stats();
  const uint64_t warm_hits = warm.hits - cold.hits;
  const uint64_t warm_misses = warm.misses - cold.misses;
  const double warm_hit_rate =
      warm_hits + warm_misses > 0
          ? static_cast<double>(warm_hits) /
                static_cast<double>(warm_hits + warm_misses)
          : 0.0;
  std::printf("cold (empty caches)       %8.3f s   (%llu profile misses)\n",
              cold_wall_s, static_cast<unsigned long long>(cold.misses));
  std::printf("warm (in-memory caches)   %8.3f s   (%.2fx, hit rate %.1f%%)\n",
              warm_wall_s, cold_wall_s / warm_wall_s, 100.0 * warm_hit_rate);

  // --- BENCH_4.json ---------------------------------------------------------
  std::FILE* out = std::fopen("BENCH_4.json", "w");
  if (out == nullptr) {
    std::printf("ERROR: cannot write BENCH_4.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\"subgraphs\":%zu,\"stream_placements\":%zu,\"reps\":%d,"
               "\"evals_per_sec_ref\":%.1f,\"evals_per_sec_fast\":%.1f,"
               "\"evals_per_sec_nomemo\":%.1f,\"evals_per_sec_latency_only\":%.1f,"
               "\"speedup\":%.3f,\"memo_hit_rate\":%.4f,"
               "\"cache\":{\"cold_wall_s\":%.4f,\"warm_wall_s\":%.4f,"
               "\"speedup\":%.3f,\"hit_rate\":%.4f}}\n",
               n, stream.size(), kReps, ref.evals_per_sec, fast.evals_per_sec,
               nomemo.evals_per_sec, latency_only.evals_per_sec, speedup, memo_hit_rate, cold_wall_s, warm_wall_s,
               cold_wall_s / warm_wall_s, warm_hit_rate);
  std::fclose(out);
  std::printf("\nwrote BENCH_4.json\n");

  // Acceptance: >= 5x evals/sec on the ~32-subgraph partition.
  if (speedup < 5.0) {
    std::printf("ERROR: fast-path speedup %.2fx below the 5x bar\n", speedup);
    return 1;
  }
  return 0;
}
