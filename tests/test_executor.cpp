// Tests for both executors: numeric equivalence with the reference
// interpreter under arbitrary placements, timeline invariants, transfer
// accounting, and threaded-executor concurrency correctness.

#include <gtest/gtest.h>

#include "device/calibration.hpp"
#include "models/model_zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/queue.hpp"

#include <thread>

namespace duet {
namespace {

struct ExecBench {
  Graph graph;
  DevicePair devices;
  Partition partition;

  explicit ExecBench(Graph g)
      : graph(std::move(g)),
        devices(make_default_device_pair(51)),
        partition(partition_phased(graph)) {}

  ExecutionPlan plan(const Placement& placement) const {
    return ExecutionPlan::build(graph, partition, placement, devices,
                                CompileOptions::compiler_defaults());
  }
};

// Every placement of the tiny Wide-and-Deep must compute reference outputs.
class PlacementSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlacementSweep, SimExecutorMatchesReference) {
  ExecBench bench(models::build_wide_deep(models::WideDeepConfig::tiny()));
  const size_t n = bench.partition.subgraphs.size();
  ASSERT_EQ(n, 5u);
  const int mask = GetParam();
  Placement placement(n);
  for (size_t i = 0; i < n; ++i) {
    placement.set(static_cast<int>(i),
                  (mask >> i) & 1 ? DeviceKind::kGpu : DeviceKind::kCpu);
  }
  ExecutionPlan plan = bench.plan(placement);
  SimExecutor executor(bench.devices);

  Rng rng(8);
  const auto feeds = models::make_random_feeds(bench.graph, rng);
  const auto expect = evaluate_graph(bench.graph, feeds);
  ExecutionResult result = executor.run(plan, feeds, false);
  ASSERT_EQ(result.outputs.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_TRUE(Tensor::allclose(result.outputs[i], expect[i], 1e-3f, 1e-4f))
        << "placement mask " << mask;
  }
  EXPECT_GT(result.latency_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMasks, PlacementSweep,
                         ::testing::Values(0, 1, 5, 10, 13, 21, 27, 31));

TEST(SimExecutorTest, TimelineInvariants) {
  ExecBench bench(models::build_wide_deep(models::WideDeepConfig::tiny()));
  const size_t n = bench.partition.subgraphs.size();
  Placement placement(n, DeviceKind::kCpu);
  placement.set(3, DeviceKind::kGpu);
  ExecutionPlan plan = bench.plan(placement);
  SimExecutor executor(bench.devices);

  Rng rng(9);
  const auto feeds = models::make_random_feeds(bench.graph, rng);
  ExecutionResult result = executor.run(plan, feeds, false);

  // Per-device exec events may not overlap; all events within [0, latency].
  double device_end[2] = {0.0, 0.0};
  int exec_events = 0;
  int transfer_events = 0;
  for (const TimelineEvent& e : result.timeline.events()) {
    EXPECT_GE(e.start, 0.0);
    EXPECT_LE(e.end, result.latency_s + 1e-12);
    if (e.kind == TimelineEvent::Kind::kExec) {
      ++exec_events;
      EXPECT_GE(e.start, device_end[static_cast<int>(e.device)] - 1e-12);
      device_end[static_cast<int>(e.device)] = e.end;
    } else {
      ++transfer_events;
    }
  }
  EXPECT_EQ(exec_events, static_cast<int>(n));
  // GPU island: input h2d + result back to the CPU-side consumer.
  EXPECT_GE(transfer_events, 2);
  EXPECT_NEAR(result.timeline.makespan(), result.latency_s,
              result.latency_s * 0.05);
}

TEST(SimExecutorTest, NoiseMakesRunsVary) {
  ExecBench bench(models::build_siamese(models::SiameseConfig::tiny()));
  Placement placement(bench.partition.subgraphs.size(), DeviceKind::kCpu);
  ExecutionPlan plan = bench.plan(placement);
  SimExecutor executor(bench.devices);
  const double a = executor.run_latency_only(plan, true);
  const double b = executor.run_latency_only(plan, true);
  EXPECT_NE(a, b);
  const double c = executor.run_latency_only(plan, false);
  const double d = executor.run_latency_only(plan, false);
  EXPECT_DOUBLE_EQ(c, d);
}

TEST(SimExecutorTest, LatencyOnlyMatchesFullRun) {
  ExecBench bench(models::build_mtdnn(models::MtDnnConfig::tiny()));
  Placement placement(bench.partition.subgraphs.size(), DeviceKind::kGpu);
  ExecutionPlan plan = bench.plan(placement);
  SimExecutor executor(bench.devices);
  Rng rng(10);
  const auto feeds = models::make_random_feeds(bench.graph, rng);
  const double full = executor.run(plan, feeds, false).latency_s;
  const double fast = executor.run_latency_only(plan, false);
  EXPECT_EQ(full, fast);
}

// --- threaded executor -----------------------------------------------------------

class ThreadedSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ThreadedSweep, MatchesReferenceUnderRealConcurrency) {
  const std::string name = GetParam();
  Graph g = [&] {
    if (name == "wide-deep")
      return models::build_wide_deep(models::WideDeepConfig::tiny());
    if (name == "siamese")
      return models::build_siamese(models::SiameseConfig::tiny());
    return models::build_mtdnn(models::MtDnnConfig::tiny());
  }();
  ExecBench bench(std::move(g));
  const size_t n = bench.partition.subgraphs.size();
  // Alternate placement to force cross-device traffic.
  Placement placement(n);
  for (size_t i = 0; i < n; ++i) {
    placement.set(static_cast<int>(i),
                  i % 2 ? DeviceKind::kGpu : DeviceKind::kCpu);
  }
  ExecutionPlan plan = bench.plan(placement);
  ThreadedExecutor executor(bench.devices);

  Rng rng(11);
  const auto feeds = models::make_random_feeds(bench.graph, rng);
  const auto expect = evaluate_graph(bench.graph, feeds);
  ExecutionResult result = executor.run(plan, feeds);
  ASSERT_EQ(result.outputs.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_TRUE(Tensor::allclose(result.outputs[i], expect[i], 1e-3f, 1e-4f));
  }
  EXPECT_GT(result.latency_s, 0.0);
  EXPECT_EQ(result.timeline.events().size(), n);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ThreadedSweep,
                         ::testing::Values("wide-deep", "siamese", "mtdnn"));

TEST(ThreadedExecutorTest, RepeatedRunsStayCorrect) {
  ExecBench bench(models::build_wide_deep(models::WideDeepConfig::tiny()));
  Placement placement(bench.partition.subgraphs.size(), DeviceKind::kCpu);
  placement.set(2, DeviceKind::kGpu);
  placement.set(3, DeviceKind::kGpu);
  ExecutionPlan plan = bench.plan(placement);
  ThreadedExecutor executor(bench.devices);
  Rng rng(12);
  const auto feeds = models::make_random_feeds(bench.graph, rng);
  const auto expect = evaluate_graph(bench.graph, feeds);
  for (int run = 0; run < 5; ++run) {
    ExecutionResult r = executor.run(plan, feeds);
    EXPECT_TRUE(Tensor::allclose(r.outputs[0], expect[0], 1e-3f, 1e-4f));
  }
}

// --- sync queue --------------------------------------------------------------------

TEST(SyncQueue, FifoOrder) {
  SyncQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  int item = 0;
  EXPECT_EQ(q.try_pop(item), SyncQueue<int>::TryPop::kItem);
  EXPECT_EQ(item, 3);
  EXPECT_EQ(q.try_pop(item), SyncQueue<int>::TryPop::kEmpty);
}

TEST(SyncQueue, TryPopDistinguishesEmptyFromClosed) {
  SyncQueue<int> q;
  int item = 0;
  EXPECT_EQ(q.try_pop(item), SyncQueue<int>::TryPop::kEmpty);
  q.push(5);
  q.close();
  // Closed queues still drain their backlog before reporting kClosed.
  EXPECT_EQ(q.try_pop(item), SyncQueue<int>::TryPop::kItem);
  EXPECT_EQ(item, 5);
  EXPECT_EQ(q.try_pop(item), SyncQueue<int>::TryPop::kClosed);
  EXPECT_EQ(q.try_pop(item), SyncQueue<int>::TryPop::kClosed);
}

// Regression: a busy-poll consumer must terminate once the queue is closed
// and drained. With the old optional<T> try_pop, "empty" and "closed and
// empty" were indistinguishable in one atomic observation, so this loop
// could spin forever after close().
TEST(SyncQueue, BusyPollLoopTerminatesAfterClose) {
  SyncQueue<int> q;
  int sum = 0;
  std::thread poller([&] {
    for (;;) {
      int item = 0;
      switch (q.try_pop(item)) {
        case SyncQueue<int>::TryPop::kItem:
          sum += item;
          break;
        case SyncQueue<int>::TryPop::kEmpty:
          std::this_thread::yield();
          break;
        case SyncQueue<int>::TryPop::kClosed:
          return;
      }
    }
  });
  for (int i = 1; i <= 100; ++i) q.push(i);
  q.close();
  poller.join();  // hangs here if close() is not observed by the poller
  EXPECT_EQ(sum, 5050);
}

TEST(SyncQueue, CloseDrainsThenNullopt) {
  SyncQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_TRUE(q.closed());
}

TEST(SyncQueue, BlockingPopWakesOnPush) {
  SyncQueue<int> q;
  std::thread producer([&] { q.push(42); });
  EXPECT_EQ(q.pop(), 42);
  producer.join();
}

TEST(SyncQueue, ManyProducersOneConsumer) {
  SyncQueue<int> q;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&q] {
      for (int i = 0; i < kPerProducer; ++i) q.push(1);
    });
  }
  int sum = 0;
  for (int i = 0; i < 4 * kPerProducer; ++i) sum += *q.pop();
  for (auto& t : producers) t.join();
  EXPECT_EQ(sum, 4 * kPerProducer);
}

// --- timeline ----------------------------------------------------------------------

TEST(TimelineTest, BusyTimeAndMakespan) {
  Timeline tl;
  tl.add({TimelineEvent::Kind::kExec, 0, DeviceKind::kCpu, "a", 0.0, 1.0});
  tl.add({TimelineEvent::Kind::kExec, 1, DeviceKind::kGpu, "b", 0.5, 2.0});
  tl.add({TimelineEvent::Kind::kTransfer, 1, DeviceKind::kCpu, "x", 2.0, 2.25});
  EXPECT_DOUBLE_EQ(tl.makespan(), 2.25);
  EXPECT_DOUBLE_EQ(tl.busy_time(DeviceKind::kCpu), 1.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(DeviceKind::kGpu), 1.5);
  const std::string ascii = tl.render_ascii(40);
  EXPECT_NE(ascii.find("GPU"), std::string::npos);
  EXPECT_NE(ascii.find("PCIe"), std::string::npos);
  const std::string csv = tl.to_csv();
  EXPECT_NE(csv.find("exec,cpu,0,a,0,1"), std::string::npos);
  EXPECT_NE(csv.find("transfer"), std::string::npos);
}

TEST(TimelineTest, EmptyTimeline) {
  Timeline tl;
  EXPECT_EQ(tl.makespan(), 0.0);
  EXPECT_EQ(tl.render_ascii(), "(empty timeline)\n");
}

}  // namespace
}  // namespace duet
