// Cross-cutting integration tests: engine determinism, execution-plan
// structure, report rendering, logging, and profiler statistics.

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "duet/duet.hpp"

namespace duet {
namespace {

// --- engine determinism ---------------------------------------------------------

TEST(Integration, SameSeedSameDecisionsAndLatency) {
  DuetOptions opts;
  opts.seed = 7;
  DuetEngine a(models::build_wide_deep(), opts);
  DuetEngine b(models::build_wide_deep(), opts);
  EXPECT_EQ(a.report().schedule.placement, b.report().schedule.placement);
  EXPECT_DOUBLE_EQ(a.report().est_hetero_s, b.report().est_hetero_s);
  EXPECT_DOUBLE_EQ(a.latency(false), b.latency(false));
  // Noisy streams are also seed-determined.
  EXPECT_DOUBLE_EQ(a.latency(true), b.latency(true));
}

TEST(Integration, DifferentSeedsSamePlacement) {
  // Placement is driven by stable profiled means, not by the noise seed.
  DuetOptions a_opts;
  a_opts.seed = 1;
  DuetOptions b_opts;
  b_opts.seed = 999;
  DuetEngine a(models::build_wide_deep(), a_opts);
  DuetEngine b(models::build_wide_deep(), b_opts);
  EXPECT_EQ(a.report().schedule.placement, b.report().schedule.placement);
}

// --- execution plan structure --------------------------------------------------------

TEST(Integration, PlanStructureMatchesPartition) {
  Graph model = models::build_wide_deep(models::WideDeepConfig::tiny());
  DevicePair devices = make_default_device_pair(91);
  Partition partition = partition_phased(model);
  Placement placement(partition.subgraphs.size(), DeviceKind::kCpu);
  placement.set(3, DeviceKind::kGpu);
  ExecutionPlan plan = ExecutionPlan::build(model, partition, placement, devices,
                                            CompileOptions::compiler_defaults());

  ASSERT_EQ(plan.subgraphs().size(), partition.subgraphs.size());
  for (const PlannedSubgraph& ps : plan.subgraphs()) {
    const Subgraph& sub = partition.subgraph(ps.id);
    EXPECT_EQ(ps.device, placement.of(ps.id));
    EXPECT_EQ(ps.feeds.size(), sub.boundary_inputs.size());
    EXPECT_EQ(ps.produces, sub.boundary_outputs);
    EXPECT_EQ(ps.compiled.device(), ps.device);
    // Feeds reference kInput nodes of the compiled graph.
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      EXPECT_TRUE(ps.compiled.graph().node(f.input_node).is_input());
    }
  }
  // consumers() is the inverse of dep_subgraphs.
  for (const PlannedSubgraph& ps : plan.subgraphs()) {
    for (int dep : ps.dep_subgraphs) {
      const auto& consumers = plan.consumers()[static_cast<size_t>(dep)];
      EXPECT_NE(std::find(consumers.begin(), consumers.end(), ps.id),
                consumers.end());
    }
  }
}

TEST(Integration, PlanRejectsMismatchedPlacement) {
  Graph model = models::build_siamese(models::SiameseConfig::tiny());
  DevicePair devices = make_default_device_pair(92);
  Partition partition = partition_phased(model);
  Placement wrong(partition.subgraphs.size() + 2);
  EXPECT_THROW(ExecutionPlan::build(model, partition, wrong, devices,
                                    CompileOptions::compiler_defaults()),
               Error);
}

// --- report rendering ------------------------------------------------------------------

TEST(Integration, TextTableAutoSizesAndPads) {
  TextTable t({"a", "long-header"});
  t.add_row({"wide-cell-content", "x"});
  t.add_row({"y"});  // short row tolerated
  const std::string out = t.render();
  // All data lines equal width.
  std::vector<std::string> lines = split(trim(out), '\n');
  ASSERT_GE(lines.size(), 4u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.size(), lines[0].size());
  }
  EXPECT_NE(out.find("wide-cell-content"), std::string::npos);
}

TEST(Integration, SpeedupFormatting) {
  EXPECT_EQ(speedup_str(2.0, 1.0), "x2.00");
  EXPECT_EQ(speedup_str(1.0, 2.0), "x0.50");
  EXPECT_EQ(speedup_str(1.0, 0.0), "x?");
}

// --- logging / timer ---------------------------------------------------------------------

TEST(Integration, LoggerLevelGate) {
  const LogLevel before = Logger::level();
  Logger::set_level(LogLevel::kError);
  EXPECT_EQ(Logger::level(), LogLevel::kError);
  DUET_LOG_DEBUG << "should be suppressed";  // must not crash
  Logger::set_level(before);
  EXPECT_STREQ(Logger::level_name(LogLevel::kWarn), "WARN");
}

TEST(Integration, WallTimerMonotone) {
  WallTimer timer;
  const double a = timer.elapsed();
  const double b = timer.elapsed();
  EXPECT_GE(b, a);
  timer.reset();
  EXPECT_LT(timer.elapsed(), 1.0);
}

// --- profiler statistics ---------------------------------------------------------------

TEST(Integration, ProfilerStatsAreOrdered) {
  Graph model = models::build_mtdnn(models::MtDnnConfig::tiny());
  DevicePair devices = make_default_device_pair(93);
  Partition partition = partition_phased(model);
  Profiler profiler(devices);
  ProfileOptions opts;
  opts.runs = 200;
  const auto profiles = profiler.profile_partition(partition, model, opts);
  for (const SubgraphProfile& p : profiles) {
    for (int d = 0; d < kNumDeviceKinds; ++d) {
      const SummaryStats& s = p.per_device[d].stats;
      EXPECT_EQ(s.count, 200u);
      EXPECT_LE(s.min, s.p50);
      EXPECT_LE(s.p50, s.p99);
      EXPECT_LE(s.p99, s.p999);
      EXPECT_LE(s.p999, s.max);
      EXPECT_GT(s.mean, 0.0);
    }
    EXPECT_GT(p.output_bytes, 0u);
  }
}

TEST(Integration, ProfilerRejectsZeroRuns) {
  Graph model = models::build_siamese(models::SiameseConfig::tiny());
  DevicePair devices = make_default_device_pair(94);
  Profiler profiler(devices);
  ProfileOptions opts;
  opts.runs = 0;
  EXPECT_THROW(profiler.profile_graph(model, DeviceKind::kCpu, opts), Error);
}

// --- umbrella header sanity -------------------------------------------------------------

TEST(Integration, UmbrellaHeaderExposesEverything) {
  // Compiles against duet/duet.hpp only (this TU); touch one symbol from
  // each re-exported area.
  Graph g = models::build_by_name("siamese");
  relay::Module m = relay::from_graph(g);
  EXPECT_FALSE(m.bindings.empty());
  Baseline baseline(g, BaselineKind::kTvmCpu,
                    *[] {
                      static DevicePair devices = make_default_device_pair(95);
                      return &devices;
                    }());
  EXPECT_GT(baseline.latency(false), 0.0);
}

}  // namespace
}  // namespace duet
