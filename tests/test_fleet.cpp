// Tests for the multi-tenant fleet runtime (ISSUE 10): batch-bucket tables,
// request coalescing numerics (batched execution bit-identical to singles,
// across the zoo), the WFQ + EDF + coalescing pickup policy, the
// ModelRegistry's cross-model cache sharing (PR-4 dedup), the virtual-time
// fleet simulator's accounting, and the real-threaded FleetServer
// (conservation per tenant, deterministic rejects, coalesced responses).

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/symbolic/crossover.hpp"
#include "analysis/symbolic/sym_shape_inference.hpp"
#include "compiler/compile_cache.hpp"
#include "compiler/pass.hpp"
#include "models/model_zoo.hpp"
#include "profile/profile_cache.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan.hpp"
#include "sched/batch_buckets.hpp"
#include "serve/batching.hpp"
#include "serve/fleet.hpp"
#include "serve/fleet_policy.hpp"
#include "serve/model_registry.hpp"
#include "serve/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {
namespace {

using serve::FleetQueue;
using serve::FleetRequest;
using serve::ModelRegistry;
using serve::ModelRegistryOptions;
using serve::PickResult;
using serve::TenantClass;

// ---------------------------------------------------------------------------
// Batch buckets

TEST(BatchBuckets, SingleBucketWithoutBoundaries) {
  const auto buckets = make_batch_buckets({}, 8);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].lo, 1);
  EXPECT_EQ(buckets[0].hi, 8);
  EXPECT_EQ(bucket_for(buckets, 1), 0u);
  EXPECT_EQ(bucket_for(buckets, 8), 0u);
}

TEST(BatchBuckets, BoundariesSplitTheRange) {
  // Crossover flips at 4 and 16 over [1, 32]: three buckets.
  const auto buckets = make_batch_buckets({4, 16}, 32);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].lo, 1);
  EXPECT_EQ(buckets[0].hi, 3);
  EXPECT_EQ(buckets[1].lo, 4);
  EXPECT_EQ(buckets[1].hi, 15);
  EXPECT_EQ(buckets[2].lo, 16);
  EXPECT_EQ(buckets[2].hi, 32);
  EXPECT_EQ(bucket_for(buckets, 3), 0u);
  EXPECT_EQ(bucket_for(buckets, 4), 1u);
  EXPECT_EQ(bucket_for(buckets, 32), 2u);
  EXPECT_EQ(buckets[1].rep(), 4);
}

TEST(BatchBuckets, DropsOutOfRangeAndDuplicateBoundaries) {
  const auto buckets = make_batch_buckets({0, 1, 4, 4, 99}, 8);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[1].lo, 4);
}

TEST(BatchBuckets, TruncatesToMaxBucketsKeepingSmallest) {
  const auto buckets = make_batch_buckets({2, 3, 4, 5, 6}, 32, 3);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[1].lo, 2);
  EXPECT_EQ(buckets[2].lo, 3);
  EXPECT_EQ(buckets[2].hi, 32);
}

TEST(BatchBuckets, BucketForRejectsBadBatch) {
  const auto buckets = make_batch_buckets({}, 8);
  EXPECT_THROW(bucket_for(buckets, 0), Error);
  // Beyond the table clamps to the last bucket (the registry range-checks
  // the batch itself).
  EXPECT_EQ(bucket_for(buckets, 9), 0u);
}

// ---------------------------------------------------------------------------
// Coalescing numerics: batched execution must be bit-identical to singles.

// Runs `name` (tiny) at batch 1 x B and at batch B on an all-CPU plan and
// compares every output byte. Placement does not affect numerics, so the
// all-CPU plan keeps the sweep cheap enough to cover the whole zoo.
void expect_batching_bit_identical(const std::string& name, int64_t batch) {
  SCOPED_TRACE(name);
  Rng rng(7);
  Graph g1 = models::build_by_name_batched(name, 1, /*tiny=*/true);
  Graph gb = models::build_by_name_batched(name, batch, /*tiny=*/true);

  DevicePair devices = make_default_device_pair(42);
  const CompileOptions copts;
  Partition p1 = partition_phased(g1);
  Partition pb = partition_phased(gb);
  ASSERT_EQ(p1.subgraphs.size(), pb.subgraphs.size())
      << "factory(" << batch << ") must partition like factory(1)";
  const Placement cpu(p1.subgraphs.size(), DeviceKind::kCpu);
  const ExecutionPlan plan1 =
      ExecutionPlan::build(g1, std::move(p1), cpu, devices, copts);
  const ExecutionPlan planb =
      ExecutionPlan::build(gb, std::move(pb), cpu, devices, copts);
  SimExecutor executor(devices);

  std::vector<std::map<NodeId, Tensor>> feeds;
  std::vector<ExecutionResult> singles;
  for (int64_t i = 0; i < batch; ++i) {
    feeds.push_back(models::make_random_feeds(g1, rng));
    singles.push_back(executor.run(plan1, feeds.back()));
  }
  std::vector<const std::map<NodeId, Tensor>*> ptrs;
  for (const auto& f : feeds) ptrs.push_back(&f);
  const ExecutionResult batched =
      executor.run(planb, serve::stack_feeds(ptrs));
  const auto rows =
      serve::split_outputs(batched.outputs, static_cast<size_t>(batch));

  ASSERT_EQ(rows.size(), static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    ASSERT_EQ(rows[i].size(), singles[i].outputs.size());
    for (size_t o = 0; o < rows[i].size(); ++o) {
      ASSERT_EQ(rows[i][o].shape(), singles[i].outputs[o].shape());
      EXPECT_EQ(std::memcmp(rows[i][o].raw_data(),
                            singles[i].outputs[o].raw_data(),
                            rows[i][o].byte_size()),
                0)
          << name << " output " << o << " row " << i
          << " differs between batched and single execution";
    }
  }
}

TEST(FleetBatching, BitIdenticalAcrossTheZoo) {
  for (const std::string& name : models::zoo_model_names()) {
    expect_batching_bit_identical(name, 3);
  }
}

TEST(FleetBatching, StackFeedsRejectsMismatchedInputSets) {
  Graph g = models::build_by_name_batched("wide-deep", 1, /*tiny=*/true);
  Rng rng(3);
  auto a = models::make_random_feeds(g, rng);
  auto b = a;
  b.erase(b.begin());
  std::vector<const std::map<NodeId, Tensor>*> ptrs{&a, &b};
  EXPECT_THROW(serve::stack_feeds(ptrs), Error);
}

TEST(FleetBatching, SplitOutputsRejectsIndivisibleRows) {
  std::vector<Tensor> outputs;
  outputs.push_back(Tensor::zeros(Shape({3, 2})));
  EXPECT_THROW(serve::split_outputs(outputs, 2), Error);
}

// ---------------------------------------------------------------------------
// FleetQueue: WFQ across tenants, EDF within, coalescing, shedding.

FleetRequest fr(uint64_t id, int tenant, int model, double arrival,
                double deadline = 0.0) {
  FleetRequest r;
  r.id = id;
  r.tenant = tenant;
  r.model = model;
  r.arrival_s = arrival;
  r.deadline_s = deadline;
  return r;
}

TEST(FleetQueue, RejectsWhenFull) {
  FleetQueue q({TenantClass{}}, 2);
  EXPECT_TRUE(q.push(fr(1, 0, 0, 0.0)));
  EXPECT_TRUE(q.push(fr(2, 0, 0, 0.0)));
  EXPECT_FALSE(q.push(fr(3, 0, 0, 0.0)));
  EXPECT_EQ(q.size(), 2u);
}

TEST(FleetQueue, EdfWithinTenant) {
  FleetQueue q({TenantClass{}}, 8);
  ASSERT_TRUE(q.push(fr(1, 0, 0, 0.0, /*deadline=*/9.0)));
  ASSERT_TRUE(q.push(fr(2, 0, 0, 0.0, /*deadline=*/5.0)));
  ASSERT_TRUE(q.push(fr(3, 0, 0, 0.0)));  // no deadline: after deadlined
  const PickResult picked = q.pick(0.0, 1);
  ASSERT_EQ(picked.batch.size(), 1u);
  EXPECT_EQ(picked.batch[0].id, 2u);
}

TEST(FleetQueue, WeightedFairShareUnderContention) {
  // gold weight 2, bronze weight 1, same model, continuous backlog: gold
  // should be served twice as often.
  std::vector<TenantClass> tenants(2);
  tenants[0] = {"gold", 2.0, 0.0};
  tenants[1] = {"bronze", 1.0, 0.0};
  FleetQueue q(tenants, 256);
  uint64_t id = 1;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(q.push(fr(id++, 0, 0, 0.0)));
    ASSERT_TRUE(q.push(fr(id++, 1, 0, 0.0)));
  }
  int served[2] = {0, 0};
  for (int round = 0; round < 90; ++round) {
    const PickResult picked = q.pick(0.0, 1);
    ASSERT_EQ(picked.batch.size(), 1u);
    const FleetRequest& r = picked.batch[0];
    ++served[r.tenant];
    q.charge(r.tenant, 1.0);  // unit service
  }
  EXPECT_EQ(served[0], 60);
  EXPECT_EQ(served[1], 30);
}

TEST(FleetQueue, IdleTenantBanksNoCredit) {
  // Tenant 1 sleeps while tenant 0 is served; on waking it snaps to the
  // current virtual time instead of replaying the backlog it never had.
  std::vector<TenantClass> tenants(2);
  tenants[0] = {"a", 1.0, 0.0};
  tenants[1] = {"b", 1.0, 0.0};
  FleetQueue q(tenants, 64);
  uint64_t id = 1;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(fr(id++, 0, 0, 0.0)));
  for (int i = 0; i < 10; ++i) {
    const PickResult picked = q.pick(0.0, 1);
    ASSERT_EQ(picked.batch.size(), 1u);
    q.charge(0, 1.0);
  }
  // b wakes up: it must not monopolize for 10 picks.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.push(fr(id++, 0, 0, 0.0)));
    ASSERT_TRUE(q.push(fr(id++, 1, 0, 0.0)));
  }
  int first_two[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const PickResult picked = q.pick(0.0, 1);
    ASSERT_EQ(picked.batch.size(), 1u);
    ++first_two[picked.batch[0].tenant];
    q.charge(picked.batch[0].tenant, 1.0);
  }
  EXPECT_EQ(first_two[0], 1);
  EXPECT_EQ(first_two[1], 1);
}

TEST(FleetQueue, CoalescesSameModelAcrossTenants) {
  std::vector<TenantClass> tenants(2);
  tenants[0] = {"a", 1.0, 0.0};
  tenants[1] = {"b", 1.0, 0.0};
  FleetQueue q(tenants, 64);
  ASSERT_TRUE(q.push(fr(1, 0, /*model=*/7, 0.0)));
  ASSERT_TRUE(q.push(fr(2, 1, /*model=*/7, 0.0)));
  ASSERT_TRUE(q.push(fr(3, 0, /*model=*/9, 0.0)));  // different model stays
  const PickResult picked = q.pick(0.0, 8);
  ASSERT_EQ(picked.batch.size(), 2u);
  EXPECT_EQ(picked.batch[0].model, 7);
  EXPECT_EQ(picked.batch[1].model, 7);
  EXPECT_EQ(q.size(), 1u);
  const PickResult rest = q.pick(0.0, 8);
  ASSERT_EQ(rest.batch.size(), 1u);
  EXPECT_EQ(rest.batch[0].model, 9);
}

TEST(FleetQueue, CoalescingRespectsMaxBatch) {
  FleetQueue q({TenantClass{}}, 64);
  for (uint64_t i = 1; i <= 10; ++i) ASSERT_TRUE(q.push(fr(i, 0, 0, 0.0)));
  const PickResult picked = q.pick(0.0, 4);
  EXPECT_EQ(picked.batch.size(), 4u);
  EXPECT_EQ(q.size(), 6u);
}

TEST(FleetQueue, ShedsExpiredRequests) {
  FleetQueue q({TenantClass{}}, 64);
  ASSERT_TRUE(q.push(fr(1, 0, 0, 0.0, /*deadline=*/1.0)));
  ASSERT_TRUE(q.push(fr(2, 0, 0, 0.0, /*deadline=*/10.0)));
  const PickResult picked = q.pick(/*now=*/5.0, 8);
  ASSERT_EQ(picked.shed.size(), 1u);
  EXPECT_EQ(picked.shed[0].id, 1u);
  ASSERT_EQ(picked.batch.size(), 1u);
  EXPECT_EQ(picked.batch[0].id, 2u);
}

TEST(FleetQueue, DeterministicAcrossRuns) {
  const auto run = [] {
    std::vector<TenantClass> tenants = serve::default_tenant_classes(3);
    FleetQueue q(tenants, 128);
    uint64_t id = 1;
    std::vector<uint64_t> order;
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(q.push(fr(id, static_cast<int>(id % 3),
                            static_cast<int>(id % 2), 0.01 * i)));
      ++id;
    }
    while (!q.empty()) {
      const PickResult picked = q.pick(1.0, 3);
      for (const FleetRequest& r : picked.batch) {
        order.push_back(r.id);
        q.charge(r.tenant, 0.5);
      }
    }
    return order;
  };
  const std::vector<uint64_t> a = run();
  const std::vector<uint64_t> b = run();
  EXPECT_EQ(a.size(), 30u);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// ModelRegistry: bucket plans + the PR-4 cache dedup surface (S4).

class FleetRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProfileCache::instance().close_disk();
    ProfileCache::instance().clear();
    ProfileCache::instance().reset_stats();
    ProfileCache::instance().set_enabled(true);
    CompileCache::instance().clear();
    CompileCache::instance().reset_stats();
    CompileCache::instance().set_enabled(true);
  }

  static ModelRegistryOptions tiny_options(int64_t max_batch = 4) {
    ModelRegistryOptions o;
    o.max_batch = max_batch;
    o.engine.enable_fallback = false;
    return o;
  }
};

TEST_F(FleetRegistryTest, BucketTableCoversTheRangeWithAlignedPlacements) {
  ModelRegistry registry(tiny_options(8));
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::ResidentModel& m = registry.model(idx);
  ASSERT_FALSE(m.buckets().empty());
  EXPECT_EQ(m.buckets().front().lo, 1);
  EXPECT_EQ(m.buckets().back().hi, 8);
  for (size_t b = 0; b < m.buckets().size(); ++b) {
    EXPECT_EQ(m.bucket_placement(b).size(),
              m.engine().partition().subgraphs.size());
  }
  for (int64_t batch = 1; batch <= 8; ++batch) {
    EXPECT_LT(m.bucket_of(batch), m.buckets().size());
  }
}

TEST_F(FleetRegistryTest, PlanSnapshotsAreSharedAcrossLookups) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::ResidentModel& m = registry.model(idx);
  const auto first = m.plan_for_batch(2);
  const auto second = m.plan_for_batch(2);
  EXPECT_EQ(first.get(), second.get()) << "plan cache must share snapshots";
  EXPECT_THROW(m.plan_for_batch(0), Error);
  EXPECT_THROW(m.plan_for_batch(99), Error);
  EXPECT_GT(m.modeled_service_s(2), 0.0);
  EXPECT_GT(m.baseline_service_s(2), 0.0);
}

// Checked mode covers every plan the registry publishes, not only the
// engine's: a lazily built batch-2 bucket plan passes the plan checker, and
// the check shows up as its own span in a trace.
TEST_F(FleetRegistryTest, LazyBucketPlanPassesThePlanChecker) {
  ScopedVerification checked(true);
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::ResidentModel& m = registry.model(idx);
  telemetry::ScopedTelemetry telemetry_on(true);
  telemetry::FlightRecorder::instance().clear();
  ASSERT_NE(m.plan_for_batch(2), nullptr);
  size_t checks = 0;
  for (const telemetry::FlightEvent& e :
       telemetry::FlightRecorder::instance().collect()) {
    if (e.kind != telemetry::FlightKind::kSpan) continue;
    const telemetry::SpanLabel span = telemetry::span_label(e.arg1);
    if (span.name != "check-plan") continue;
    ++checks;
    EXPECT_EQ(span.category, "analysis");
    EXPECT_EQ(span.detail, m.engine().model().name());
  }
  EXPECT_EQ(checks, 1u);
}

TEST_F(FleetRegistryTest, ApplyPlacementRebuildsBucketZeroPlans) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::ResidentModel& m = registry.model(idx);
  const int64_t top = m.buckets().front().hi;  // bucket 0's largest batch
  const auto held = m.plan_for_batch(top);
  const Placement registered = m.bucket_placement(0);
  EXPECT_DOUBLE_EQ(m.modeled_service_s(1), m.baseline_service_s(1));
  EXPECT_EQ(m.plan_version(), 1u);

  Placement flipped = registered;
  flipped.flip(0);
  EXPECT_EQ(m.apply_placement(flipped), 2u);

  // Materialised bucket-0 plans are rebuilt under the new placement; a held
  // snapshot is untouched, and the baseline keeps the registered placement.
  const serve::ServingPlan serving = m.serving_plan(top);
  EXPECT_EQ(serving.version, 2u);
  EXPECT_EQ(serving.bucket, 0u);
  EXPECT_NE(serving.plan.get(), held.get());
  EXPECT_EQ(serving.plan->placement(), flipped);
  EXPECT_EQ(held->placement(), registered);
  EXPECT_EQ(m.baseline_plan_for_batch(top)->placement(), registered);
  // The memoized bucket-0 service time is re-measured under the swap.
  DevicePair devices = make_default_device_pair(42 ^ 0x5EEDFACEull);
  SimExecutor executor(devices);
  EXPECT_DOUBLE_EQ(m.modeled_service_s(1),
                   executor.run_latency_only(*m.plan_for_batch(1), false));
}

TEST_F(FleetRegistryTest, StructurallyIdenticalTwinIsFullyCacheWarm) {
  // The S4 gate: a second registration of a structurally identical model
  // must compile nothing new — 100% warm compile-cache hits and zero new
  // profiler compiles (the profile.compiles counter stands still).
  ModelRegistry registry(tiny_options());
  registry.register_model(
      "wide-deep-a", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  const uint64_t compiles_before =
      telemetry::counter("profile.compiles").value();

  registry.register_model(
      "wide-deep-b", models::zoo_batched_factory("wide-deep", /*tiny=*/true));

  const uint64_t compiles_after =
      telemetry::counter("profile.compiles").value();
  EXPECT_EQ(compiles_after, compiles_before)
      << "second registration must not re-compile for profiling";

  const serve::RegistryCacheStats& stats = registry.cache_stats();
  ASSERT_EQ(stats.registrations.size(), 2u);
  const serve::RegistrationCacheDelta& twin = stats.registrations[1];
  EXPECT_EQ(twin.model, "wide-deep-b");
  EXPECT_EQ(twin.compile_misses, 0u)
      << "twin registration compiled something the cache should have had";
  EXPECT_GT(twin.compile_hits, 0u);
  EXPECT_DOUBLE_EQ(twin.compile_hit_rate(), 1.0);
  EXPECT_EQ(twin.profile_misses, 0u);
  EXPECT_GT(twin.profile_hits, 0u);
  EXPECT_FALSE(stats.to_string().empty());
}

TEST_F(FleetRegistryTest, RegistrationBuildsEachDistinctBatchOnce) {
  // The crossover analysis runs on a copy of the engine's batch-1 graph, so
  // registration calls the factory once for the engine plus once per bucket
  // whose representative batch is not 1.
  const ModelRegistryOptions options = tiny_options(16);
  const auto zoo = models::zoo_batched_factory("wide-deep", /*tiny=*/true);
  int calls = 0;
  ModelRegistry registry(options);
  const int idx = registry.register_model("wide-deep", [&](int64_t batch) {
    ++calls;
    return zoo(batch);
  });
  serve::ResidentModel& m = registry.model(idx);
  int other_reps = 0;
  for (const BatchBucket& bucket : m.buckets()) other_reps += bucket.rep() != 1;
  EXPECT_EQ(calls, 1 + other_reps);

  // Same buckets as the crossover analysis of a freshly built graph, and
  // the same placements as engines built on fresh graphs.
  const Graph optimized =
      PassManager::standard(options.engine.compile).run(zoo(1));
  const Partition partition =
      partition_phased(optimized, options.engine.partition);
  symbolic::CrossoverOptions x_opts;
  x_opts.lo = 1;
  x_opts.hi = options.max_batch;
  const symbolic::CrossoverReport report = symbolic::analyze_crossover(
      optimized, partition,
      symbolic::infer_symbolic(optimized, symbolic::SymbolicOptions{}), x_opts);
  const std::vector<BatchBucket> expected = make_batch_buckets(
      symbolic::serving_bucket_boundaries(report, options.max_batch),
      options.max_batch, options.max_buckets);
  ASSERT_EQ(m.buckets().size(), expected.size());
  for (size_t b = 0; b < expected.size(); ++b) {
    EXPECT_EQ(m.buckets()[b].lo, expected[b].lo);
    EXPECT_EQ(m.buckets()[b].hi, expected[b].hi);
    const DuetEngine engine(zoo(expected[b].rep()), options.engine);
    EXPECT_EQ(m.bucket_placement(b), engine.report().schedule.placement)
        << "bucket " << b;
  }
}

TEST_F(FleetRegistryTest, RejectsDuplicateNamesAndUnknownIndices) {
  ModelRegistry registry(tiny_options());
  registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  EXPECT_THROW(registry.register_model(
                   "wide-deep",
                   models::zoo_batched_factory("wide-deep", /*tiny=*/true)),
               Error);
  EXPECT_EQ(registry.index_of("nope"), -1);
  EXPECT_THROW(registry.model(5), Error);
}

// ---------------------------------------------------------------------------
// Virtual-time fleet simulator

TEST(FleetSim, ConservationPerTenant) {
  serve::FleetSimConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.tenants = serve::default_tenant_classes(2, /*deadline_s=*/0.05);
  config.max_batch = 2;
  std::vector<serve::FleetSimRequest> requests;
  for (int i = 0; i < 40; ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = 0.001 * i;
    r.tenant = i % 2;
    r.model = 0;
    requests.push_back(r);
  }
  const serve::FleetSimStats stats = serve::simulate_fleet(
      requests, [](const std::vector<FleetRequest>&) { return 0.02; }, config);
  uint64_t offered = 0;
  for (const serve::FleetTenantStats& t : stats.tenants) {
    EXPECT_EQ(t.admission.offered, t.admission.completed + t.admission.shed +
                                       t.admission.rejected)
        << "conservation violated for tenant " << t.name;
    offered += t.admission.offered;
  }
  EXPECT_EQ(offered, 40u);
  EXPECT_EQ(stats.total.offered, 40u);
}

TEST(FleetSim, BurstsCoalesceIntoBatches) {
  serve::FleetSimConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.max_batch = 8;
  std::vector<serve::FleetSimRequest> requests;
  for (int i = 0; i < 32; ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = 0.0;  // one burst
    r.tenant = 0;
    r.model = 0;
    requests.push_back(r);
  }
  const serve::FleetSimStats stats = serve::simulate_fleet(
      requests,
      [](const std::vector<FleetRequest>& b) {
        return 0.01 + 0.001 * static_cast<double>(b.size());
      },
      config);
  EXPECT_EQ(stats.total.completed, 32u);
  EXPECT_EQ(stats.batches, 4u) << "a burst of 32 at max_batch 8 is 4 batches";
  EXPECT_DOUBLE_EQ(stats.mean_batch, 8.0);
  EXPECT_EQ(stats.coalesced_requests, 32u);
}

TEST(FleetSim, BatchingBeatsSinglesOnThroughput) {
  // Sub-linear batch service (the whole point of coalescing): the batched
  // fleet finishes the same open-loop burst strictly faster.
  std::vector<serve::FleetSimRequest> requests;
  for (int i = 0; i < 64; ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = 0.0001 * i;
    requests.push_back(r);
  }
  const auto service = [](const std::vector<FleetRequest>& b) {
    return 0.01 + 0.002 * static_cast<double>(b.size());
  };
  serve::FleetSimConfig batched;
  batched.queue_capacity = 128;
  batched.max_batch = 8;
  serve::FleetSimConfig singles = batched;
  singles.max_batch = 1;
  const auto with = serve::simulate_fleet(requests, service, batched);
  const auto without = serve::simulate_fleet(requests, service, singles);
  EXPECT_EQ(with.total.completed, 64u);
  EXPECT_EQ(without.total.completed, 64u);
  EXPECT_GT(with.throughput_qps, without.throughput_qps);
  EXPECT_LT(with.makespan_s, without.makespan_s);
}

TEST(FleetSim, WeightsShapeThroughputUnderOverload) {
  // Deadlined overload: the heavier tenant completes more and sheds less.
  serve::FleetSimConfig config;
  config.workers = 1;
  config.queue_capacity = 256;
  config.tenants = serve::default_tenant_classes(2, /*deadline_s=*/0.2);
  config.max_batch = 1;
  std::vector<serve::FleetSimRequest> requests;
  for (int i = 0; i < 200; ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = 0.0005 * i;
    r.tenant = i % 2;
    requests.push_back(r);
  }
  const auto stats = serve::simulate_fleet(
      requests, [](const std::vector<FleetRequest>&) { return 0.01; }, config);
  EXPECT_GT(stats.tenants[0].admission.completed,
            stats.tenants[1].admission.completed)
      << "gold (weight 4) must outrun silver (weight 2) under overload";
}

// ---------------------------------------------------------------------------
// FleetServer (real threads)

class FleetServerTest : public FleetRegistryTest {};

TEST_F(FleetServerTest, CoalescedResponsesAreBitIdenticalToSingles) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::ResidentModel& m = registry.model(idx);

  Rng rng(11);
  const Graph& g = m.engine().model();
  std::vector<std::map<NodeId, Tensor>> feeds;
  for (int i = 0; i < 3; ++i) feeds.push_back(models::make_random_feeds(g, rng));

  // Reference: each request alone through the batch-1 plan.
  DevicePair devices = make_default_device_pair(42);
  SimExecutor executor(devices);
  const auto plan1 = m.plan_for_batch(1);
  std::vector<ExecutionResult> singles;
  for (const auto& f : feeds) singles.push_back(executor.run(*plan1, f));

  serve::FleetOptions options;
  options.workers = 1;
  options.max_batch = 4;
  options.start_paused = true;  // all three queue before the single pickup
  serve::FleetServer server(registry, options);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (const auto& f : feeds) futures.push_back(server.submit(idx, 0, f));
  server.resume();
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::FleetResponse r = futures[i].get();
    ASSERT_EQ(r.status, serve::RequestStatus::kOk);
    EXPECT_EQ(r.batch, 3) << "paused submits must coalesce into one batch";
    ASSERT_EQ(r.outputs.size(), singles[i].outputs.size());
    for (size_t o = 0; o < r.outputs.size(); ++o) {
      EXPECT_EQ(std::memcmp(r.outputs[o].raw_data(),
                            singles[i].outputs[o].raw_data(),
                            r.outputs[o].byte_size()),
                0)
          << "coalesced row " << i << " output " << o << " diverged";
    }
  }
  server.shutdown();
  const serve::FleetServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_requests, 3u);
  EXPECT_EQ(stats.batch_histogram.at(3), 1u);
}

TEST_F(FleetServerTest, PerTenantConservationAndRejects) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));

  serve::FleetOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.tenants = serve::default_tenant_classes(2);
  options.start_paused = true;  // deterministic rejects: nothing drains
  serve::FleetServer server(registry, options);

  Rng rng(5);
  const auto feeds =
      models::make_random_feeds(registry.model(idx).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit(idx, i % 2, feeds));
  }
  // Capacity 4: the last two must have been rejected immediately.
  int rejected = 0;
  for (int i = 4; i < 6; ++i) {
    if (futures[i].get().status == serve::RequestStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(rejected, 2);
  server.resume();
  server.drain();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].get().status, serve::RequestStatus::kOk);
  }
  const serve::FleetServerStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  uint64_t offered = 0;
  for (const serve::FleetTenantStats& t : stats.tenants) {
    EXPECT_EQ(t.admission.offered, t.admission.completed + t.admission.shed +
                                       t.admission.rejected)
        << "conservation violated for tenant " << t.name;
    offered += t.admission.offered;
  }
  EXPECT_EQ(offered, 6u);
  EXPECT_EQ(stats.total.rejected, 2u);
  EXPECT_EQ(stats.total.completed, 4u);
}

TEST_F(FleetServerTest, ServesMultipleResidentModels) {
  ModelRegistry registry(tiny_options());
  const int wd = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  const int sm = registry.register_model(
      "siamese", models::zoo_batched_factory("siamese", /*tiny=*/true));

  serve::FleetOptions options;
  options.workers = 2;
  serve::FleetServer server(registry, options);
  Rng rng(9);
  const auto wd_feeds =
      models::make_random_feeds(registry.model(wd).engine().model(), rng);
  const auto sm_feeds =
      models::make_random_feeds(registry.model(sm).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit(wd, 0, wd_feeds));
    futures.push_back(server.submit(sm, 0, sm_feeds));
  }
  server.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats().total.completed, 8u);
}

TEST_F(FleetServerTest, ExpiredDeadlinesAreShedNotExecuted) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::FleetOptions options;
  options.workers = 1;
  options.start_paused = true;
  serve::FleetServer server(registry, options);
  Rng rng(5);
  const auto feeds =
      models::make_random_feeds(registry.model(idx).engine().model(), rng);
  auto doomed = server.submit(idx, 0, feeds, /*deadline_s=*/1e-4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();
  const serve::FleetResponse r = doomed.get();
  EXPECT_EQ(r.status, serve::RequestStatus::kShed);
  EXPECT_TRUE(r.outputs.empty());
  server.drain();
  EXPECT_EQ(server.stats().total.shed, 1u);
}

TEST_F(FleetServerTest, BadFeedsThrowOnSubmitAndServerKeepsServing) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::FleetOptions options;
  options.workers = 1;
  serve::FleetServer server(registry, options);
  Rng rng(13);
  const auto feeds =
      models::make_random_feeds(registry.model(idx).engine().model(), rng);

  // Wrong shape, wrong dtype, unknown and missing inputs: each throws on
  // the caller's thread and is never counted.
  const Tensor& first = feeds.begin()->second;
  auto wrong_shape = feeds;
  std::vector<int64_t> dims = first.shape().dims();
  dims.back() += 1;
  wrong_shape.begin()->second = Tensor(Shape(dims), first.dtype());
  EXPECT_THROW(server.submit(idx, 0, wrong_shape), Error);
  auto wrong_dtype = feeds;
  wrong_dtype.begin()->second = Tensor(
      first.shape(),
      first.dtype() == DType::kInt32 ? DType::kFloat32 : DType::kInt32);
  EXPECT_THROW(server.submit(idx, 0, wrong_dtype), Error);
  auto unknown = feeds;
  unknown.emplace(static_cast<NodeId>(1 << 20), first);
  EXPECT_THROW(server.submit(idx, 0, unknown), Error);
  auto missing = feeds;
  missing.erase(missing.begin());
  EXPECT_THROW(server.submit(idx, 0, missing), Error);

  // The same server still serves a valid request.
  EXPECT_EQ(server.submit(idx, 0, feeds).get().status,
            serve::RequestStatus::kOk);
  server.drain();
  const serve::FleetServerStats stats = server.stats();
  EXPECT_EQ(stats.total.offered, 1u);
  EXPECT_EQ(stats.total.offered,
            stats.total.completed + stats.total.shed + stats.total.rejected);
}

}  // namespace
}  // namespace duet
