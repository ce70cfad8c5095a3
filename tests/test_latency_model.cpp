// Tests for the latency evaluator (the scheduler's measure_latency): overlap
// of independent subgraphs, serialization on one device, communication
// charging, and agreement with the simulated executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "device/calibration.hpp"
#include "graph/builder.hpp"
#include "models/model_zoo.hpp"
#include "profile/profiler.hpp"
#include "runtime/executor.hpp"
#include "sched/latency_model.hpp"

namespace duet {
namespace {

// Fixture: a two-branch model with known, strongly asymmetric costs.
struct Bench {
  Graph graph;
  DevicePair devices;
  Partition partition;
  std::vector<SubgraphProfile> profiles;

  explicit Bench(Graph g)
      : graph(std::move(g)),
        devices(make_default_device_pair(31)),
        partition(partition_phased(graph)) {
    Profiler profiler(devices);
    ProfileOptions opts;
    opts.with_noise = false;
    opts.runs = 1;
    profiles = profiler.profile_partition(partition, graph, opts);
  }

  LatencyEvaluator evaluator() {
    return LatencyEvaluator(partition, graph, profiles, devices.link->params());
  }
};

Graph two_branch_model() {
  // Hidden width 768 puts the per-branch CPU and GPU LSTM costs in the same
  // ballpark (as in the Siamese workload), so splitting the branches across
  // devices is profitable.
  GraphBuilder b("two-branch", 3);
  const NodeId a_in = b.input(Shape{1, 64, 128}, "a");
  const NodeId b_in = b.input(Shape{1, 64, 128}, "b");
  NodeId left = b.lstm(a_in, 768, "left.lstm");
  left = b.last_timestep(left);
  NodeId right = b.lstm(b_in, 768, "right.lstm");
  right = b.last_timestep(right);
  const NodeId join = b.concat({left, right}, 1);
  return b.finish({b.dense(join, 8, "", "head")});
}

TEST(LatencyModel, SingleDeviceSerializesBothBranches) {
  Bench bench(two_branch_model());
  LatencyEvaluator eval = bench.evaluator();
  const size_t n = bench.partition.subgraphs.size();

  const double cpu_only = eval.evaluate(Placement(n, DeviceKind::kCpu));
  // All on CPU: branches run back to back; makespan >= sum of branch times.
  double branch_sum = 0.0;
  for (const auto& prof : bench.profiles) {
    branch_sum += prof.time_on(DeviceKind::kCpu);
  }
  EXPECT_GE(cpu_only, branch_sum);
}

TEST(LatencyModel, SplitOverlapsBranches) {
  Bench bench(two_branch_model());
  LatencyEvaluator eval = bench.evaluator();
  const size_t n = bench.partition.subgraphs.size();
  ASSERT_EQ(n, 3u);

  Placement split(n, DeviceKind::kCpu);
  split.set(1, DeviceKind::kGpu);  // one branch to GPU
  const double split_latency = eval.evaluate(split);
  const double cpu_only = eval.evaluate(Placement(n, DeviceKind::kCpu));
  EXPECT_LT(split_latency, cpu_only);
}

TEST(LatencyModel, CrossDeviceEdgePaysTransfer) {
  // With device-equal compute costs (forced by editing the profiles), any
  // GPU placement must be strictly slower than CPU-only by exactly the extra
  // PCIe traffic it induces — the communication charging the correction step
  // relies on.
  Bench bench(two_branch_model());
  for (SubgraphProfile& prof : bench.profiles) {
    const double t = prof.time_on(DeviceKind::kCpu);
    prof.per_device[static_cast<int>(DeviceKind::kGpu)].mean_s = t;
  }
  LatencyEvaluator eval(bench.partition, bench.graph, bench.profiles,
                        bench.devices.link->params());
  const size_t n = bench.partition.subgraphs.size();

  const double cpu_only = eval.evaluate(Placement(n, DeviceKind::kCpu));
  // Head on GPU: pays branch->head transfer plus the output d2h.
  Placement head_gpu(n, DeviceKind::kCpu);
  head_gpu.set(2, DeviceKind::kGpu);
  EXPECT_GT(eval.evaluate(head_gpu), cpu_only);
  // Everything on GPU: compute identical, but pays h2d for all host inputs
  // and d2h for the output.
  const double gpu_only = eval.evaluate(Placement(n, DeviceKind::kGpu));
  EXPECT_GT(gpu_only, cpu_only);
}

TEST(LatencyModel, EventsAreConsistent) {
  Bench bench(two_branch_model());
  LatencyEvaluator eval = bench.evaluator();
  const size_t n = bench.partition.subgraphs.size();
  Placement split(n, DeviceKind::kCpu);
  split.set(1, DeviceKind::kGpu);

  std::vector<ScheduleEvent> events;
  const double latency = eval.evaluate(split, &events);
  ASSERT_EQ(events.size(), n);

  double makespan = 0.0;
  double device_end[2] = {0.0, 0.0};
  for (const ScheduleEvent& e : events) {
    EXPECT_LE(e.ready, e.start);
    EXPECT_LT(e.start, e.finish);
    // No overlap on the same device.
    EXPECT_GE(e.start, device_end[static_cast<int>(e.device)] - 1e-12);
    device_end[static_cast<int>(e.device)] = e.finish;
    makespan = std::max(makespan, e.finish);
  }
  EXPECT_LE(makespan, latency + 1e-12);
}

TEST(LatencyModel, EvaluationCounterAdvances) {
  Bench bench(two_branch_model());
  LatencyEvaluator eval = bench.evaluator();
  const size_t n = bench.partition.subgraphs.size();
  EXPECT_EQ(eval.evaluations(), 0);
  eval.evaluate(Placement(n));
  eval.evaluate(Placement(n));
  EXPECT_EQ(eval.evaluations(), 2);
}

TEST(LatencyModel, EdgeAndInputByteQueries) {
  Bench bench(two_branch_model());
  LatencyEvaluator eval = bench.evaluator();
  // Branch subgraphs (0, 1) feed the head (2); head consumes no host input.
  EXPECT_GT(eval.edge_bytes(0, 2), 0u);
  EXPECT_GT(eval.edge_bytes(1, 2), 0u);
  EXPECT_EQ(eval.edge_bytes(0, 1), 0u);
  EXPECT_GT(eval.host_input_bytes(0), 0u);
  EXPECT_EQ(eval.host_input_bytes(2), 0u);
}

// --- fast path vs reference ----------------------------------------------------

void expect_identical(const LatencyEvaluator& eval, const Placement& placement) {
  std::vector<ScheduleEvent> fast_events;
  std::vector<ScheduleEvent> ref_events;
  const double fast = eval.evaluate(placement, &fast_events);
  const double ref = eval.evaluate_reference(placement, &ref_events);
  // Bit-identical, not approximately equal: the fast path must perform the
  // same floating-point operations in the same order.
  EXPECT_EQ(fast, ref);
  ASSERT_EQ(fast_events.size(), ref_events.size());
  for (size_t i = 0; i < fast_events.size(); ++i) {
    EXPECT_EQ(fast_events[i].subgraph, ref_events[i].subgraph);
    EXPECT_EQ(fast_events[i].device, ref_events[i].device);
    EXPECT_EQ(fast_events[i].ready, ref_events[i].ready);
    EXPECT_EQ(fast_events[i].start, ref_events[i].start);
    EXPECT_EQ(fast_events[i].finish, ref_events[i].finish);
  }
}

void expect_identical_everywhere(const LatencyEvaluator& eval, size_t n,
                                 Rng& rng, int random_placements) {
  expect_identical(eval, Placement(n, DeviceKind::kCpu));
  expect_identical(eval, Placement(n, DeviceKind::kGpu));
  for (int trial = 0; trial < random_placements; ++trial) {
    Placement p(n, DeviceKind::kCpu);
    for (size_t i = 0; i < n; ++i) {
      if (rng.coin()) p.set(static_cast<int>(i), DeviceKind::kGpu);
    }
    expect_identical(eval, p);
  }
}

TEST(LatencyModel, FastPathMatchesReferenceOnFixture) {
  Bench bench(two_branch_model());
  LatencyEvaluator eval = bench.evaluator();
  Rng rng(7);
  expect_identical_everywhere(eval, bench.partition.subgraphs.size(), rng, 20);
}

TEST(LatencyModel, FastPathMatchesReferenceAcrossZoo) {
  Rng rng(11);
  for (const std::string& name : models::zoo_model_names()) {
    SCOPED_TRACE(name);
    Bench bench(models::build_by_name(name));
    LatencyEvaluator eval = bench.evaluator();
    expect_identical_everywhere(eval, bench.partition.subgraphs.size(), rng, 20);
  }
}

TEST(LatencyModel, FastPathMatchesReferenceWithLanes) {
  // Intra-device concurrency exercises the multi-lane heap paths.
  Bench bench(models::build_by_name("inception"));
  LatencyEvaluator eval(bench.partition, bench.graph, bench.profiles,
                        bench.devices.link->params(),
                        LaneConfig::gpu_streams(3));
  Rng rng(13);
  expect_identical_everywhere(eval, bench.partition.subgraphs.size(), rng, 20);
}

TEST(LatencyModel, MemoServesRevisitedPlacements) {
  Bench bench(two_branch_model());
  LatencyEvaluator eval = bench.evaluator();
  const size_t n = bench.partition.subgraphs.size();
  Placement p(n, DeviceKind::kCpu);
  p.set(1, DeviceKind::kGpu);

  const double first = eval.evaluate(p);
  EXPECT_EQ(eval.memo_hits(), 0);
  const double again = eval.evaluate(p);
  EXPECT_EQ(again, first);
  EXPECT_EQ(eval.memo_hits(), 1);
  // Served evaluations still count as evaluations (ablation counters).
  EXPECT_EQ(eval.evaluations(), 2);

  // Requesting events bypasses the memo but must agree with it.
  std::vector<ScheduleEvent> events;
  EXPECT_EQ(eval.evaluate(p, &events), first);
  EXPECT_EQ(eval.memo_hits(), 1);
  ASSERT_EQ(events.size(), n);

  eval.set_memo_enabled(false);
  EXPECT_EQ(eval.evaluate(p), first);
  EXPECT_EQ(eval.memo_hits(), 1);
}

// --- evaluator vs simulated executor -------------------------------------------

// Profiles whose means are the plan's own deterministic modeled times: the
// evaluator then prices every subgraph exactly as SimExecutor does.
std::vector<SubgraphProfile> modeled_profiles(const ExecutionPlan& plan,
                                              DevicePair& devices) {
  std::vector<SubgraphProfile> profiles(plan.subgraphs().size());
  for (const PlannedSubgraph& ps : plan.subgraphs()) {
    SubgraphProfile& prof = profiles[static_cast<size_t>(ps.id)];
    prof.subgraph_id = ps.id;
    prof.per_device[static_cast<int>(ps.device)].mean_s =
        devices.device(ps.device).modeled_time(ps.compiled, /*with_noise=*/false);
  }
  return profiles;
}

// All-CPU, all-GPU and four seeded random placements.
std::vector<Placement> sweep_placements(size_t n, Rng& rng) {
  std::vector<Placement> out = {Placement(n, DeviceKind::kCpu),
                                Placement(n, DeviceKind::kGpu)};
  for (int trial = 0; trial < 4; ++trial) {
    Placement p(n, DeviceKind::kCpu);
    for (size_t i = 0; i < n; ++i) {
      if (rng.coin()) p.set(static_cast<int>(i), DeviceKind::kGpu);
    }
    out.push_back(p);
  }
  return out;
}

// (start, subgraph, device, finish), sorted: equal starts (t = 0 on both
// devices, parallel lanes) have no defined order in either event source.
using ExecRow = std::tuple<double, int, DeviceKind, double>;

std::vector<ExecRow> sorted_rows(std::vector<ExecRow> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The evaluator and the noiseless simulated executor run the same list
// scheduler, so for the same plan their makespans are bit-identical; where
// the numeric run is affordable (tiny configs) so are their exec events.
void expect_evaluator_matches_executor(const Graph& graph, const Partition& partition,
                                       const Placement& placement, DevicePair& devices,
                                       bool numeric) {
  const ExecutionPlan plan = ExecutionPlan::build(
      graph, partition, placement, devices, CompileOptions::compiler_defaults());
  const std::vector<SubgraphProfile> profiles = modeled_profiles(plan, devices);
  for (const LaneConfig& lanes : {LaneConfig::single(), LaneConfig::gpu_streams(3)}) {
    SCOPED_TRACE(lanes.of(DeviceKind::kGpu) > 1 ? "3 gpu streams" : "single lanes");
    LatencyEvaluator eval(partition, graph, profiles, devices.link->params(), lanes);
    SimExecutor executor(devices, lanes);
    std::vector<ScheduleEvent> events;
    const double modeled = eval.evaluate(placement, &events);
    EXPECT_EQ(modeled, executor.run_latency_only(plan, false));
    if (!numeric) continue;

    Rng rng(17);
    const ExecutionResult run =
        executor.run(plan, models::make_random_feeds(graph, rng), false);
    EXPECT_EQ(run.latency_s, modeled);
    std::vector<ExecRow> eval_rows;
    for (const ScheduleEvent& e : events) {
      eval_rows.push_back({e.start, e.subgraph, e.device, e.finish});
    }
    std::vector<ExecRow> exec_rows;
    for (const TimelineEvent& e : run.timeline.events()) {
      if (e.kind != TimelineEvent::Kind::kExec) continue;
      exec_rows.push_back({e.start, e.subgraph, e.device, e.end});
    }
    EXPECT_EQ(sorted_rows(eval_rows), sorted_rows(exec_rows));
  }
}

TEST(LatencyModel, AgreesWithSimExecutor) {
  // Every zoo model at paper size (makespans) and in its tiny config
  // (makespans and exec events), under six placements and two lane configs.
  DevicePair devices = make_default_device_pair(31);
  Rng rng(19);
  for (const std::string& name : models::zoo_model_names()) {
    for (const bool tiny : {false, true}) {
      SCOPED_TRACE(name + (tiny ? " (tiny)" : ""));
      const Graph graph = tiny ? models::build_by_name_batched(name, 1, /*tiny=*/true)
                               : models::build_by_name(name);
      const Partition partition = partition_phased(graph);
      for (const Placement& placement :
           sweep_placements(partition.subgraphs.size(), rng)) {
        SCOPED_TRACE(placement.to_string());
        expect_evaluator_matches_executor(graph, partition, placement, devices, tiny);
      }
    }
  }
}

TEST(LatencyModel, AgreesWithSimExecutorOnSharedOutputOwner) {
  // One GPU subgraph owns both user outputs: it pays one d2h for their
  // summed bytes, in the evaluator and in the executor alike.
  GraphBuilder b("two-outputs", 5);
  const NodeId x = b.input(Shape{1, 64}, "x");
  const NodeId wide = b.dense(x, 2048, "relu", "wide");
  const NodeId narrow = b.dense(wide, 8, "", "narrow");
  const Graph graph = b.finish({narrow, wide});
  const Partition partition = partition_phased(graph);
  ASSERT_EQ(partition.subgraphs.size(), 1u);
  DevicePair devices = make_default_device_pair(31);
  expect_evaluator_matches_executor(graph, partition, Placement(1, DeviceKind::kGpu),
                                    devices, /*numeric=*/true);
}

}  // namespace
}  // namespace duet
