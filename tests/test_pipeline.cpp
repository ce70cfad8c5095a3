// Tests for the throughput extensions: the pipelined runner, the Inception
// model, and Relay module serialization.

#include <gtest/gtest.h>

#include <cstdio>

#include "device/calibration.hpp"
#include "duet/engine.hpp"
#include "models/model_zoo.hpp"
#include "relay/serialize.hpp"
#include "runtime/pipeline.hpp"

namespace duet {
namespace {

struct PipeBench {
  Graph graph;
  DevicePair devices;
  Partition partition;

  explicit PipeBench(Graph g)
      : graph(std::move(g)),
        devices(make_default_device_pair(81)),
        partition(partition_phased(graph)) {}

  ExecutionPlan plan(const Placement& placement) const {
    return ExecutionPlan::build(graph, partition, placement, devices,
                                CompileOptions::compiler_defaults());
  }
};

TEST(Pipeline, SingleQueryMatchesSimExecutor) {
  // A one-query window is the simulated executor's schedule, bit for bit:
  // every zoo model under all-CPU, all-GPU and four seeded random
  // placements, with and without GPU streams.
  Rng rng(23);
  for (const std::string& name : models::zoo_model_names()) {
    SCOPED_TRACE(name);
    PipeBench bench(models::build_by_name(name));
    const size_t n = bench.partition.subgraphs.size();
    std::vector<Placement> placements = {Placement(n, DeviceKind::kCpu),
                                         Placement(n, DeviceKind::kGpu)};
    for (int trial = 0; trial < 4; ++trial) {
      Placement p(n, DeviceKind::kCpu);
      for (size_t i = 0; i < n; ++i) {
        if (rng.coin()) p.set(static_cast<int>(i), DeviceKind::kGpu);
      }
      placements.push_back(p);
    }
    for (const Placement& placement : placements) {
      SCOPED_TRACE(placement.to_string());
      const ExecutionPlan plan = bench.plan(placement);
      for (const LaneConfig& lanes :
           {LaneConfig::single(), LaneConfig::gpu_streams(3)}) {
        PipelinedRunner runner(bench.devices, lanes);
        SimExecutor executor(bench.devices, lanes);
        const auto r = runner.run(plan, 1, false);
        EXPECT_EQ(r.queries, 1);
        EXPECT_EQ(r.makespan_s, executor.run_latency_only(plan, false));
      }
    }
  }
}

TEST(Pipeline, CrossDeviceEdgeChargesOnlyTheValuesRead) {
  // Chunk 0 (GPU) materializes a wide user output and the narrow value
  // chunk 1 (CPU) reads: only the narrow value crosses the 0 -> 1 edge.
  GraphBuilder b("read-one-of-two", 6);
  const NodeId x = b.input(Shape{1, 64}, "x");
  const NodeId wide = b.dense(x, 4096, "relu", "wide");
  const NodeId narrow = b.dense(wide, 8, "", "narrow");
  NodeId y = b.dense(narrow, 8, "relu", "tail0");
  y = b.dense(y, 8, "", "tail1");
  Graph g = b.finish({y, wide});

  PartitionOptions po;
  po.granularity = PartitionOptions::Granularity::kNested;
  po.nested_max_nodes = 2;
  PipeBench bench(std::move(g));
  bench.partition = partition_phased(bench.graph, po);
  ASSERT_EQ(bench.partition.subgraphs.size(), 2u);
  ASSERT_EQ(bench.partition.subgraphs[0].boundary_outputs.size(), 2u);
  Placement placement(2, DeviceKind::kCpu);
  placement.set(0, DeviceKind::kGpu);
  const ExecutionPlan plan = bench.plan(placement);

  PipelinedRunner runner(bench.devices);
  SimExecutor executor(bench.devices);
  EXPECT_EQ(runner.run(plan, 1, false).makespan_s,
            executor.run_latency_only(plan, false));
}

TEST(Pipeline, CrossDeviceChainPipelines) {
  // A sequential chain nested-partitioned into chunks and placed
  // alternately: per-query latency is the sum of both stages, but the
  // pipeline sustains one query per max(stage) — classic software
  // pipelining. (Wide-and-Deep itself gains no extra throughput from
  // pipelining: its bottleneck device is already 100% busy within one
  // query, which PipelinedRunner must — and does — respect.)
  GraphBuilder b("pipe-chain");
  NodeId x = b.input(Shape{1, 512});
  for (int i = 0; i < 8; ++i) x = b.dense(x, 512);
  Graph g = b.finish({x});

  DevicePair devices = make_default_device_pair(82);
  PartitionOptions po;
  po.granularity = PartitionOptions::Granularity::kNested;
  po.nested_max_nodes = 4;
  Partition partition = partition_phased(g, po);
  ASSERT_GE(partition.subgraphs.size(), 2u);
  Placement placement(partition.subgraphs.size());
  for (size_t i = 0; i < placement.size(); ++i) {
    placement.set(static_cast<int>(i),
                  i % 2 ? DeviceKind::kGpu : DeviceKind::kCpu);
  }
  ExecutionPlan plan = ExecutionPlan::build(g, partition, placement, devices,
                                            CompileOptions::compiler_defaults());
  PipelinedRunner runner(devices);
  const auto one = runner.run(plan, 1, false);
  const auto many = runner.run(plan, 64, false);
  EXPECT_GT(many.throughput_qps, (1.0 / one.makespan_s) * 1.4);
  // And can never beat the bottleneck-device bound.
  EXPECT_LE(many.throughput_qps, 1.0 / many.bottleneck_busy_s * 1.05);
}

TEST(Pipeline, DuetPlacementOutperformsGpuOnlyThroughput) {
  PipeBench bench(models::build_wide_deep());
  DuetEngine engine(models::build_wide_deep());
  ExecutionPlan duet_plan = bench.plan(engine.report().schedule.placement);
  ExecutionPlan gpu_plan =
      bench.plan(Placement(bench.partition.subgraphs.size(), DeviceKind::kGpu));

  PipelinedRunner runner(bench.devices);
  const auto d = runner.run(duet_plan, 32, false);
  const auto g = runner.run(gpu_plan, 32, false);
  EXPECT_GT(d.throughput_qps, g.throughput_qps);
}

TEST(Pipeline, LatenciesMonotoneInQueueDepth) {
  PipeBench bench(models::build_siamese());
  ExecutionPlan plan =
      bench.plan(Placement(bench.partition.subgraphs.size(), DeviceKind::kCpu));
  PipelinedRunner runner(bench.devices);
  const auto r = runner.run(plan, 8, false);
  ASSERT_EQ(r.query_latency_s.size(), 8u);
  for (size_t q = 1; q < 8; ++q) {
    EXPECT_GE(r.query_latency_s[q], r.query_latency_s[q - 1] - 1e-12)
        << "FIFO single-device queue must complete in order";
  }
}

// --- inception ---------------------------------------------------------------------

TEST(Inception, NineMultiPathModules) {
  Graph g = models::build_inception(models::InceptionConfig::tiny());
  Partition p = partition_phased(g);
  int multipath = 0;
  for (const Phase& phase : p.phases) {
    if (phase.type == PhaseType::kMultiPath) {
      ++multipath;
      EXPECT_EQ(phase.subgraphs.size(), 4u);  // the four inception branches
    }
  }
  EXPECT_EQ(multipath, 9);
}

TEST(Inception, ForwardIsDistribution) {
  Graph g = models::build_inception(models::InceptionConfig::tiny());
  Rng rng(1);
  const auto out = evaluate_graph(g, models::make_random_feeds(g, rng));
  float sum = 0.0f;
  for (int64_t i = 0; i < out[0].numel(); ++i) sum += out[0].data<float>()[i];
  EXPECT_NEAR(sum, 1.0f, 1e-4);
}

TEST(Inception, FullSizeFallsBackToGpu) {
  // Branches are all small GPU-friendly convs: splitting them across PCIe
  // cannot win, so DUET must fall back even though parallelism exists.
  DuetEngine engine(models::build_inception());
  EXPECT_TRUE(engine.report().fell_back);
  EXPECT_EQ(engine.report().fallback_device, DeviceKind::kGpu);
}

// --- relay serialization -------------------------------------------------------------

TEST(RelaySerialize, RoundTripWithWeights) {
  Graph g = models::build_siamese(models::SiameseConfig::tiny(), 123);
  const std::string path = ::testing::TempDir() + "duet_siamese.relay";
  relay::save_module(relay::from_graph(g), path);

  Graph loaded = relay::to_graph(relay::load_module(path));
  ASSERT_EQ(loaded.num_nodes(), g.num_nodes());

  Rng rng(2);
  const auto feeds = models::make_random_feeds(g, rng);
  std::map<NodeId, Tensor> feeds2;
  const auto in1 = g.input_ids();
  const auto in2 = loaded.input_ids();
  for (size_t i = 0; i < in1.size(); ++i) feeds2[in2[i]] = feeds.at(in1[i]);
  const auto a = evaluate_graph(g, feeds);
  const auto b = evaluate_graph(loaded, feeds2);
  // Weights round-tripped bit-exact, so outputs are identical.
  EXPECT_EQ(Tensor::max_abs_diff(a[0], b[0]), 0.0f);

  std::remove(path.c_str());
  std::remove((path + ".weights").c_str());
}

TEST(RelaySerialize, MissingSidecarLoadsZeros) {
  Graph g = models::build_siamese(models::SiameseConfig::tiny());
  const std::string path = ::testing::TempDir() + "duet_nosidecar.relay";
  relay::save_module(relay::from_graph(g), path);
  std::remove((path + ".weights").c_str());
  Graph loaded = relay::to_graph(relay::load_module(path));
  // Structure intact; constants zeroed.
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  for (NodeId id : loaded.constant_ids()) {
    const Tensor& t = loaded.node(id).value;
    if (t.dtype() != DType::kFloat32) continue;
    for (int64_t i = 0; i < t.numel(); ++i) {
      ASSERT_EQ(t.data<float>()[i], 0.0f);
    }
  }
  std::remove(path.c_str());
}

TEST(RelaySerialize, BadPathThrows) {
  EXPECT_THROW(relay::load_module("/nonexistent/dir/x.relay"), Error);
  Graph g = models::build_siamese(models::SiameseConfig::tiny());
  EXPECT_THROW(relay::save_module(relay::from_graph(g), "/nonexistent/dir/x.relay"),
               Error);
}

}  // namespace
}  // namespace duet
