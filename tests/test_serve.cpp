// Tests for the serving runtime as a single-model server — a one-model
// ModelRegistry with max_batch 1 and one tenant in front of FleetServer:
// workload generators, the virtual-time twin (simulate_fleet) in that
// configuration, online recalibration, and the real-threaded server
// (determinism under concurrency, deadline shedding, reject-on-full,
// graceful drain, plan-swap equivalence, SLO window, incident dumps), plus
// PipelinedRunner determinism the serving stack leans on.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "device/calibration.hpp"
#include "duet/engine.hpp"
#include "models/model_zoo.hpp"
#include "runtime/pipeline.hpp"
#include "serve/fleet.hpp"
#include "serve/recalibration.hpp"
#include "serve/simulator.hpp"
#include "serve/workload.hpp"

namespace duet {
namespace {

// ---------------------------------------------------------------------------
// Workload generators

TEST(ServeWorkload, PoissonIsDeterministicAscendingAtRate) {
  Rng a(7);
  Rng b(7);
  const auto t1 = serve::poisson_trace(500.0, 2000, a);
  const auto t2 = serve::poisson_trace(500.0, 2000, b);
  EXPECT_EQ(t1, t2) << "same seed must replay the same arrival process";
  ASSERT_EQ(t1.size(), 2000u);
  EXPECT_GT(t1.front(), 0.0);
  for (size_t i = 1; i < t1.size(); ++i) EXPECT_GE(t1[i], t1[i - 1]);
  EXPECT_NEAR(serve::offered_qps(t1), 500.0, 500.0 * 0.15);
}

TEST(ServeWorkload, BurstyRateSitsBetweenBaseAndBurst) {
  Rng rng(11);
  const auto trace = serve::bursty_trace(100.0, 1000.0, 0.1, 0.4, 2000, rng);
  ASSERT_EQ(trace.size(), 2000u);
  for (size_t i = 1; i < trace.size(); ++i) EXPECT_GE(trace[i], trace[i - 1]);
  const double rate = serve::offered_qps(trace);
  EXPECT_GT(rate, 100.0);
  EXPECT_LT(rate, 1000.0);
}

// ---------------------------------------------------------------------------
// Virtual-time twin, single-model configuration: one tenant, max_batch 1.

serve::FleetSimConfig single_model(int workers, size_t queue_capacity,
                                   double deadline_s = 0.0) {
  serve::FleetSimConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  cfg.max_batch = 1;
  cfg.tenants = {serve::TenantClass{"default", 1.0, deadline_s}};
  return cfg;
}

double one_ms(const std::vector<serve::FleetRequest>&) { return 1e-3; }

TEST(ServeSim, DeterministicReplay) {
  Rng rng(3);
  const auto requests =
      serve::single_model_requests(serve::poisson_trace(800.0, 500, rng));
  const serve::FleetSimConfig cfg = single_model(2, 128);
  const serve::FleetSimStats a = serve::simulate_fleet(requests, one_ms, cfg);
  const serve::FleetSimStats b = serve::simulate_fleet(requests, one_ms, cfg);
  EXPECT_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_EQ(a.sojourn.p99, b.sojourn.p99);
  EXPECT_EQ(a.total.completed, b.total.completed);
}

TEST(ServeSim, WorkersScaleSaturatedThroughput) {
  // 2x the 4-worker saturation rate, no deadline, queue big enough to
  // absorb everything: completion-bound throughput must scale with workers.
  Rng rng(5);
  const auto requests =
      serve::single_model_requests(serve::poisson_trace(8000.0, 800, rng));
  const serve::FleetSimStats one =
      serve::simulate_fleet(requests, one_ms, single_model(1, 1u << 20));
  const serve::FleetSimStats four =
      serve::simulate_fleet(requests, one_ms, single_model(4, 1u << 20));
  EXPECT_EQ(one.total.completed, 800u);
  EXPECT_EQ(four.total.completed, 800u);
  EXPECT_NEAR(one.throughput_qps, 1000.0, 30.0);
  EXPECT_GT(four.throughput_qps, 3.8 * one.throughput_qps);
  EXPECT_LT(four.throughput_qps, 4.2 * one.throughput_qps);
}

TEST(ServeSim, AdmissionAccountingConserves) {
  Rng rng(9);
  const auto requests =
      serve::single_model_requests(serve::poisson_trace(4000.0, 1000, rng));
  const serve::FleetSimStats s = serve::simulate_fleet(
      requests, one_ms, single_model(1, 16, /*deadline_s=*/5e-3));
  EXPECT_EQ(s.total.offered, 1000u);
  EXPECT_EQ(s.total.offered,
            s.total.completed + s.total.shed + s.total.rejected);
  EXPECT_GT(s.total.rejected, 0u) << "4x overload on a 16-deep queue";
  EXPECT_GT(s.total.shed, 0u) << "5 ms deadline at 4x overload";
  EXPECT_LE(s.total.completed_late, s.total.completed);
}

TEST(ServeSim, NoDeadlineNeverSheds) {
  Rng rng(13);
  const auto requests =
      serve::single_model_requests(serve::poisson_trace(3000.0, 500, rng));
  const serve::FleetSimStats s =
      serve::simulate_fleet(requests, one_ms, single_model(2, 1u << 20));
  EXPECT_EQ(s.total.shed, 0u);
  EXPECT_EQ(s.total.completed, 500u);
  EXPECT_GT(s.max_queue_depth, 0u);
}

TEST(ServeSim, PerRequestDrawsReplayInArrivalOrder) {
  // One worker, no overlap in service: the i-th arrival is served with the
  // i-th draw, so the summed sojourn is exactly the summed draws.
  const std::vector<double> arrivals = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> draws = {0.1, 0.2, 0.3, 0.4};
  const auto service = [&draws](const std::vector<serve::FleetRequest>& b) {
    EXPECT_EQ(b.size(), 1u);
    return draws[b.front().id];
  };
  const serve::FleetSimStats s = serve::simulate_fleet(
      serve::single_model_requests(arrivals), service, single_model(1, 8));
  EXPECT_EQ(s.total.completed, 4u);
  EXPECT_NEAR(s.sojourn.mean, 0.25, 1e-12);
  EXPECT_NEAR(s.sojourn.max, 0.4, 1e-12);
}

// ---------------------------------------------------------------------------
// Online recalibration

struct RecalFixture {
  Graph model;
  DuetOptions options;
  DuetEngine engine;

  RecalFixture()
      : model(models::build_wide_deep(models::WideDeepConfig::tiny())),
        options([] {
          DuetOptions o;
          o.enable_fallback = false;  // keep the heterogeneous plan
          return o;
        }()),
        engine(models::build_wide_deep(models::WideDeepConfig::tiny()),
               options) {}

  // Observed times that exactly reproduce the profiles (plus the dispatch
  // overhead SimExecutor folds into every exec span).
  serve::DriftAccumulator faithful_observations(uint64_t samples) const {
    const auto& profiles = engine.report().profiles;
    serve::DriftAccumulator obs(profiles.size());
    const double dispatch = executor_dispatch_overhead();
    for (size_t i = 0; i < profiles.size(); ++i) {
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        const DeviceKind kind = static_cast<DeviceKind>(d);
        for (uint64_t s = 0; s < samples; ++s) {
          obs.record(static_cast<int>(i), kind,
                     profiles[i].time_on(kind) + dispatch);
        }
      }
    }
    return obs;
  }
};

TEST(ServeRecal, FaithfulObservationsDoNotSwap) {
  RecalFixture f;
  const serve::DriftAccumulator obs = f.faithful_observations(8);
  serve::RecalibrationOptions opts;
  const serve::RecalibrationResult r = serve::recalibrate(
      f.engine.model(), f.engine.partition(), f.engine.report().profiles, obs,
      f.engine.report().schedule.placement,
      f.engine.devices().link->params(), opts);
  EXPECT_FALSE(r.swapped);
  EXPECT_EQ(r.placement, f.engine.report().schedule.placement);
  EXPECT_GT(r.overridden_cells, 0u);
  // Observed costs equal profiled costs, so the prediction for the current
  // placement must match the scheduler's original estimate.
  EXPECT_NEAR(r.predicted_current_s, f.engine.report().schedule.est_latency_s,
              f.engine.report().schedule.est_latency_s * 1e-6);
}

TEST(ServeRecal, UnderSampledCellsKeepOfflineProfile) {
  RecalFixture f;
  const serve::DriftAccumulator obs = f.faithful_observations(2);
  serve::RecalibrationOptions opts;
  opts.min_samples = 8;
  const serve::RecalibrationResult r = serve::recalibrate(
      f.engine.model(), f.engine.partition(), f.engine.report().profiles, obs,
      f.engine.report().schedule.placement,
      f.engine.devices().link->params(), opts);
  EXPECT_EQ(r.overridden_cells, 0u);
  EXPECT_FALSE(r.swapped);
}

TEST(ServeRecal, DriftedDeviceTriggersSwap) {
  RecalFixture f;
  const Placement& current = f.engine.report().schedule.placement;
  const auto& profiles = f.engine.report().profiles;
  serve::DriftAccumulator obs = f.faithful_observations(8);
  // The runtime now observes every subgraph running 25x slower than profiled
  // on its currently-assigned device: the corrected schedule must abandon
  // the stale placement.
  const double dispatch = executor_dispatch_overhead();
  for (size_t i = 0; i < profiles.size(); ++i) {
    const DeviceKind assigned = current.of(static_cast<int>(i));
    for (uint64_t s = 0; s < 16; ++s) {
      obs.record(static_cast<int>(i), assigned,
                 25.0 * profiles[i].time_on(assigned) + dispatch);
    }
  }
  serve::RecalibrationOptions opts;
  const serve::RecalibrationResult r = serve::recalibrate(
      f.engine.model(), f.engine.partition(), profiles, obs, current,
      f.engine.devices().link->params(), opts);
  EXPECT_TRUE(r.swapped);
  EXPECT_NE(r.placement, current);
  EXPECT_LT(r.predicted_new_s,
            r.predicted_current_s * (1.0 - opts.swap_threshold));
}

TEST(ServeRecal, DriftAccumulatorRecordsTimelines) {
  RecalFixture f;
  Rng rng(2);
  const auto feeds = models::make_random_feeds(f.engine.model(), rng);
  const ExecutionResult result = f.engine.infer(feeds);
  serve::DriftAccumulator obs(f.engine.partition().subgraphs.size());
  obs.record(result.timeline);
  EXPECT_GT(obs.total_samples(), 0u);
  obs.reset();
  EXPECT_EQ(obs.total_samples(), 0u);
}

TEST(ServeRecal, SingleSampleDriftIsUsableAtMinSamplesOne) {
  RecalFixture f;
  const auto& profiles = f.engine.report().profiles;
  serve::DriftAccumulator obs(profiles.size());
  // Exactly one observation, for one cell: with min_samples=1 that cell is
  // overridden and the schedule still comes out well-formed.
  const DeviceKind assigned = f.engine.report().schedule.placement.of(0);
  obs.record(0, assigned,
             profiles[0].time_on(assigned) + executor_dispatch_overhead());
  EXPECT_EQ(obs.total_samples(), 1u);
  serve::RecalibrationOptions opts;
  opts.min_samples = 1;
  const serve::RecalibrationResult r = serve::recalibrate(
      f.engine.model(), f.engine.partition(), profiles, obs,
      f.engine.report().schedule.placement, f.engine.devices().link->params(),
      opts);
  EXPECT_EQ(r.overridden_cells, 1u);
  EXPECT_FALSE(r.swapped) << "one faithful sample is no reason to move";
  EXPECT_GT(r.predicted_current_s, 0.0);
}

// ---------------------------------------------------------------------------
// Single-model server: FleetServer over a one-model registry, max_batch 1,
// one tenant (EDF under a uniform deadline is FIFO).

Graph tiny_model() {
  return models::build_wide_deep(models::WideDeepConfig::tiny());
}

// The only tenant class.
constexpr int kTenant = 0;

serve::ModelRegistryOptions single_model_registry() {
  serve::ModelRegistryOptions o;
  o.max_batch = 1;
  o.engine.enable_fallback = false;  // keep the heterogeneous plan
  return o;
}

struct SingleModelServer {
  serve::ModelRegistry registry{single_model_registry()};
  const int index = registry.register_model(
      "wide-deep", [](int64_t) { return tiny_model(); });
  serve::FleetServer server;

  explicit SingleModelServer(serve::FleetOptions options)
      : server(registry, std::move(options)) {}

  serve::ResidentModel& model() { return registry.model(index); }
  std::map<NodeId, Tensor> feeds(uint64_t seed) {
    Rng rng(seed);
    return models::make_random_feeds(model().engine().model(), rng);
  }
  std::future<serve::FleetResponse> submit(
      const std::map<NodeId, Tensor>& feeds, double deadline_s = -1.0) {
    return server.submit(index, kTenant, feeds, deadline_s);
  }
  Placement placement() { return model().bucket_placement(0); }
};

serve::FleetOptions single_options(int workers, size_t queue_capacity = 64) {
  serve::FleetOptions o;
  o.workers = workers;
  o.queue_capacity = queue_capacity;
  return o;
}

void expect_conserved(const serve::FleetServerStats& stats) {
  EXPECT_EQ(stats.total.offered,
            stats.total.completed + stats.total.shed + stats.total.rejected);
}

// Stress knobs for the threaded-server tests. The defaults keep CI fast;
// the TSan job turns them up (more workers, more in-flight requests) so the
// race detector sees far more interleavings without a code change:
//   DUET_SERVE_STRESS_WORKERS  worker-thread count        (default: base)
//   DUET_SERVE_STRESS_ITERS    request-count multiplier   (default: 1)
int stress_workers(int base) {
  if (const char* env = std::getenv("DUET_SERVE_STRESS_WORKERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return base;
}

int stress_iters(int base) {
  if (const char* env = std::getenv("DUET_SERVE_STRESS_ITERS")) {
    const int mult = std::atoi(env);
    if (mult > 0) return base * mult;
  }
  return base;
}

TEST(ServeServer, OutputsBitIdenticalForOneAndManyWorkers) {
  DuetOptions eopts;
  eopts.enable_fallback = false;
  DuetEngine reference(tiny_model(), eopts);
  Rng rng(4);
  const auto feeds = models::make_random_feeds(reference.model(), rng);
  const ExecutionResult expect = reference.infer(feeds);

  for (int workers : {1, stress_workers(4)}) {
    SingleModelServer s(single_options(workers));
    std::vector<std::future<serve::FleetResponse>> futures;
    const int requests = stress_iters(6);
    for (int i = 0; i < requests; ++i) futures.push_back(s.submit(feeds));
    for (auto& f : futures) {
      const serve::FleetResponse r = f.get();
      ASSERT_EQ(r.status, serve::RequestStatus::kOk);
      EXPECT_EQ(r.batch, 1) << "a single-model server never coalesces";
      ASSERT_EQ(r.outputs.size(), expect.outputs.size());
      for (size_t i = 0; i < r.outputs.size(); ++i) {
        ASSERT_EQ(r.outputs[i].byte_size(), expect.outputs[i].byte_size());
        EXPECT_EQ(std::memcmp(r.outputs[i].raw_data(),
                              expect.outputs[i].raw_data(),
                              r.outputs[i].byte_size()),
                  0)
            << workers << " workers must serve bit-identical outputs";
      }
      EXPECT_DOUBLE_EQ(r.modeled_latency_s, expect.latency_s)
          << "modeled service time is a property of the plan, not the worker";
    }
    s.server.shutdown();
  }
}

TEST(ServeServer, ExpiredDeadlinesAreShedNotExecuted) {
  // The tenant's default deadline applies to requests submitted without one.
  serve::FleetOptions opts = single_options(2);
  opts.start_paused = true;
  opts.tenants = {serve::TenantClass{"default", 1.0, /*deadline_s=*/1e-4}};
  SingleModelServer s(opts);
  const auto feeds = s.feeds(6);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(s.submit(feeds));
  // Workers are paused; every deadline expires before service can start.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  s.server.resume();
  s.server.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kShed);
  }
  const serve::FleetServerStats stats = s.server.stats();
  EXPECT_EQ(stats.total.offered, 4u);
  EXPECT_EQ(stats.total.accepted, 4u);
  EXPECT_EQ(stats.total.shed, 4u);
  EXPECT_EQ(stats.total.completed, 0u);
  EXPECT_EQ(stats.slo_breaches, 4u) << "every shed is an SLO breach";
}

TEST(ServeServer, FullQueueRejectsImmediately) {
  serve::FleetOptions opts = single_options(1, /*queue_capacity=*/3);
  opts.start_paused = true;
  SingleModelServer s(opts);
  const auto feeds = s.feeds(8);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(s.submit(feeds));
  // Paused workers: arrivals 4 and 5 found the 3-deep queue full and must
  // already be resolved as rejected.
  for (int i = 3; i < 5; ++i) {
    ASSERT_EQ(futures[static_cast<size_t>(i)].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[static_cast<size_t>(i)].get().status,
              serve::RequestStatus::kRejected);
  }
  s.server.resume();
  s.server.drain();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get().status,
              serve::RequestStatus::kOk);
  }
  const serve::FleetServerStats stats = s.server.stats();
  EXPECT_EQ(stats.total.offered, 5u);
  EXPECT_EQ(stats.total.accepted, 3u);
  EXPECT_EQ(stats.total.rejected, 2u);
  EXPECT_EQ(stats.total.completed, 3u);
}

TEST(ServeServer, DrainResolvesEveryInFlightRequest) {
  const int requests = stress_iters(8);
  // Scale capacity with the request count so the stress run never trades
  // drain coverage for reject coverage.
  SingleModelServer s(single_options(stress_workers(2),
                                     static_cast<size_t>(requests)));
  const auto feeds = s.feeds(10);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < requests; ++i) futures.push_back(s.submit(feeds));
  s.server.drain();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "drain must not return while a request is unresolved";
    EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
  EXPECT_EQ(s.server.stats().total.completed,
            static_cast<uint64_t>(requests));
  // A drained server is closed for business.
  EXPECT_EQ(s.submit(feeds).get().status, serve::RequestStatus::kRejected);
}

// The threaded twin of the model checker's abstract protocol
// (analysis/model_check): producers submitting, workers consuming, a swapper
// flipping placements mid-stream, then drain. Under TSan with the stress env
// knobs turned up this is the main interleaving amplifier.
TEST(ServeServer, ConcurrentSubmitSwapDrainStress) {
  const int per_producer = stress_iters(4);
  constexpr int kProducers = 2;
  SingleModelServer s(single_options(
      stress_workers(2), static_cast<size_t>(kProducers * per_producer)));
  const auto feeds = s.feeds(16);

  std::vector<std::future<serve::FleetResponse>> futures[kProducers];
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        futures[p].push_back(s.submit(feeds));
      }
    });
  }
  std::thread swapper([&] {
    Placement flipped = s.placement();
    flipped.flip(0);
    s.server.apply_placement(s.index, flipped);
  });
  for (auto& t : producers) t.join();
  swapper.join();
  s.server.drain();

  uint64_t ok = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) {
      const serve::FleetResponse r = f.get();
      // Admission is closed-loop here (capacity == total submissions), so
      // every request resolves kOk regardless of swap timing.
      ASSERT_EQ(r.status, serve::RequestStatus::kOk);
      ++ok;
    }
  }
  const serve::FleetServerStats stats = s.server.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.plan_version, 2u);
  EXPECT_EQ(stats.total.completed, ok);
  // Conservation — the invariant the model checker proves exhaustively on
  // the abstraction must hold on the real implementation too.
  expect_conserved(stats);
}

TEST(ServeServer, PlacementSwapPreservesNumericsExactly) {
  SingleModelServer s(single_options(1));
  const auto feeds = s.feeds(12);
  const serve::FleetResponse before = s.submit(feeds).get();
  ASSERT_EQ(before.status, serve::RequestStatus::kOk);
  const Placement registered = s.placement();

  Placement flipped = registered;
  flipped.flip(0);
  s.server.apply_placement(s.index, flipped);
  EXPECT_EQ(s.server.stats().swaps, 1u);
  EXPECT_EQ(s.placement(), flipped);
  EXPECT_EQ(s.model().plan_for_batch(1)->placement(), flipped)
      << "the materialised batch-1 plan must be rebuilt under the swap";
  EXPECT_EQ(s.model().baseline_plan_for_batch(1)->placement(), registered)
      << "the single-plan baseline keeps the registration-time placement";

  const serve::FleetResponse after = s.submit(feeds).get();
  ASSERT_EQ(after.status, serve::RequestStatus::kOk);
  EXPECT_GT(after.plan_version, before.plan_version);
  ASSERT_EQ(after.outputs.size(), before.outputs.size());
  for (size_t i = 0; i < after.outputs.size(); ++i) {
    ASSERT_EQ(after.outputs[i].byte_size(), before.outputs[i].byte_size());
    EXPECT_EQ(std::memcmp(after.outputs[i].raw_data(),
                          before.outputs[i].raw_data(),
                          after.outputs[i].byte_size()),
              0)
        << "a placement swap must never change what the model computes";
  }
}

TEST(ServeServer, RecalibrateNowUsesObservedDrift) {
  SingleModelServer s(single_options(2));
  const auto feeds = s.feeds(14);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(s.submit(feeds));
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
  s.server.drain();

  EXPECT_GT(s.server.stats().drift_samples, 0u);
  serve::RecalibrationOptions recal;
  recal.min_samples = 1;
  const serve::RecalibrationResult r = s.server.recalibrate_now(s.index, recal);
  EXPECT_GT(r.overridden_cells, 0u);
  EXPECT_GT(r.predicted_current_s, 0.0);
  // Noise-free serving observes exactly the profiled costs, so recalibration
  // must see no win worth a swap.
  EXPECT_FALSE(r.swapped);
  const serve::FleetServerStats stats = s.server.stats();
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(stats.recalibrations, 1u);
}

// ---------------------------------------------------------------------------
// Observability: windowed SLO view, drift edge cases, flight dumps

TEST(ServeRecal, EmptyWindowRecalibrationIsSafeNoOp) {
  // A server that has served nothing has zero drift samples; recalibrate_now
  // must skip the scheduler rerun entirely instead of re-deriving (and
  // possibly swapping to) the offline decision.
  SingleModelServer s(single_options(1));
  const Placement before = s.placement();
  for (int i = 0; i < 2; ++i) {
    const serve::RecalibrationResult r = s.server.recalibrate_now(s.index);
    EXPECT_FALSE(r.swapped);
    EXPECT_EQ(r.overridden_cells, 0u);
    EXPECT_EQ(r.placement, before);
  }
  EXPECT_EQ(s.server.stats().swaps, 0u);
  EXPECT_EQ(s.placement(), before);
}

// Drift recording (workers, under the stats mutex) racing recalibration's
// snapshot-and-swap. The TSan job turns the stress knobs up; the assertion
// here is conservation plus "no crash, no torn accumulator".
TEST(ServeServer, ConcurrentRecordDuringSwapStress) {
  const int requests = stress_iters(8);
  SingleModelServer s(
      single_options(stress_workers(2), static_cast<size_t>(requests)));
  const auto feeds = s.feeds(18);
  serve::RecalibrationOptions recal;
  recal.min_samples = 1;

  std::vector<std::future<serve::FleetResponse>> futures;
  std::thread producer([&] {
    for (int i = 0; i < requests; ++i) futures.push_back(s.submit(feeds));
  });
  std::thread recalibrator([&] {
    for (int i = 0; i < 4; ++i) s.server.recalibrate_now(s.index, recal);
  });
  std::thread swapper([&] {
    Placement flipped = s.placement();
    flipped.flip(0);
    s.server.apply_placement(s.index, flipped);
  });
  producer.join();
  recalibrator.join();
  swapper.join();
  s.server.drain();

  uint64_t ok = 0;
  for (auto& f : futures) {
    ok += f.get().status == serve::RequestStatus::kOk ? 1 : 0;
  }
  const serve::FleetServerStats stats = s.server.stats();
  EXPECT_EQ(stats.total.completed, ok);
  EXPECT_GE(stats.swaps, 1u);
  expect_conserved(stats);
}

TEST(ServeServer, SloSnapshotReflectsWindowedTraffic) {
  SingleModelServer s(single_options(2));
  const auto feeds = s.feeds(20);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(s.submit(feeds));
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
  s.server.drain();

  const telemetry::SloSnapshot snap = s.server.slo_snapshot();
  EXPECT_EQ(snap.offered, 6u);
  EXPECT_EQ(snap.completed, 6u);
  EXPECT_EQ(snap.shed, 0u);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.breaches, 0u) << "no deadlines -> no breaches";
  EXPECT_GT(snap.latency_p50_us, 0.0);
  EXPECT_LE(snap.latency_p50_us, snap.latency_p99_us);
  EXPECT_EQ(snap.plan_version, 1u)
      << "no swap in the window -> the live plan version";
}

// The incident acceptance scenario: a seeded deadline-miss storm must
// produce a validated post-mortem dump whose summary reconstructs at least
// one full request path (enqueue -> pickup -> launch -> complete). The dump
// and its counters land before the shed request resolves, so they are
// visible as soon as drain() returns.
TEST(ServeServer, DeadlineMissStormTriggersFlightDump) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "duet-flight-storm-test";
  fs::remove_all(dir);
  telemetry::FlightRecorder::instance().clear();

  serve::FleetOptions opts = single_options(2, 32);
  opts.observability.dump_dir = dir.string();
  opts.observability.trigger.miss_burst = 3;
  opts.observability.trigger.miss_window_ms = 10e3;
  SingleModelServer s(opts);
  const auto feeds = s.feeds(22);

  // Healthy phase: full request paths land in the rings.
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(s.submit(feeds));
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
  futures.clear();

  // Storm: deadlines already expired at admission, every pickup sheds.
  for (int i = 0; i < 6; ++i) {
    futures.push_back(s.submit(feeds, /*deadline_s=*/1e-9));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kShed);
  }
  s.server.drain();

  const serve::FleetServerStats stats = s.server.stats();
  EXPECT_EQ(stats.flight_dumps, 1u) << "the trigger fires exactly once";
  EXPECT_GE(stats.slo_breaches, 6u);
  ASSERT_TRUE(fs::exists(dir / "flight_trace.json"));
  ASSERT_TRUE(fs::exists(dir / "flight_summary.json"));

  std::ifstream in(dir / "flight_summary.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string summary = buffer.str();
  EXPECT_NE(summary.find("\"reason\":\"deadline-miss-burst\""),
            std::string::npos);
  const size_t pos = summary.find("\"complete_paths\":");
  ASSERT_NE(pos, std::string::npos);
  const int paths =
      std::atoi(summary.c_str() + pos + std::strlen("\"complete_paths\":"));
  EXPECT_GE(paths, 1) << "the dump must reconstruct a full request path";
  fs::remove_all(dir);
}

// A dump directory that cannot be created (it sits under a regular file):
// the storm still fires the trigger, but no dump is written, so none is
// counted, and the server keeps serving.
TEST(ServeServer, UnwritableDumpDirCountsNoFlightDump) {
  namespace fs = std::filesystem;
  const fs::path file =
      fs::path(::testing::TempDir()) / "duet-flight-storm-not-a-dir";
  fs::remove_all(file);
  std::ofstream(file) << "x";

  serve::FleetOptions opts = single_options(2, 32);
  opts.observability.dump_dir = (file / "sub").string();
  opts.observability.trigger.miss_burst = 3;
  opts.observability.trigger.miss_window_ms = 10e3;
  SingleModelServer s(opts);
  const auto feeds = s.feeds(23);

  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(s.submit(feeds, /*deadline_s=*/1e-9));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kShed);
  }
  EXPECT_EQ(s.submit(feeds).get().status, serve::RequestStatus::kOk)
      << "the server survives the failed dump";
  s.server.drain();

  EXPECT_EQ(s.server.stats().flight_dumps, 0u);
  EXPECT_FALSE(fs::exists(file / "sub"));
  EXPECT_TRUE(fs::is_regular_file(file));
  fs::remove_all(file);
}

// ---------------------------------------------------------------------------
// PipelinedRunner properties the serving stack relies on

TEST(ServePipeline, NoiseFreeRunsAreIdentical) {
  DuetOptions eopts;
  eopts.enable_fallback = false;
  DuetEngine engine(tiny_model(), eopts);
  PipelinedRunner runner(engine.devices());
  const auto a = runner.run(engine.plan(), 16, false);
  const auto b = runner.run(engine.plan(), 16, false);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.throughput_qps, b.throughput_qps);
  ASSERT_EQ(a.query_latency_s.size(), 16u);
  EXPECT_EQ(a.query_latency_s, b.query_latency_s);
}

TEST(ServePipeline, ThroughputBoundedByBottleneckDevice) {
  DuetOptions eopts;
  eopts.enable_fallback = false;
  DuetEngine engine(tiny_model(), eopts);
  PipelinedRunner runner(engine.devices());
  const auto r = runner.run(engine.plan(), 32, false);
  ASSERT_GT(r.bottleneck_busy_s, 0.0);
  // Steady state: at most one query per bottleneck-busy interval (small
  // slack for the pipeline fill/drain ramps).
  EXPECT_LE(r.throughput_qps, 1.0 / r.bottleneck_busy_s * 1.05);
  EXPECT_GE(r.mean_latency_s, 0.0);
}

}  // namespace
}  // namespace duet
