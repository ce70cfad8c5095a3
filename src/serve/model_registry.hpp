#pragma once

// ModelRegistry — many resident models, one cache, plans per batch bucket
// (ISSUE 10 tentpole). Each registered model brings a batch-parameterized
// graph factory (factory(B) must be structurally identical to factory(1)
// with dim 0 scaled — models/model_zoo.hpp provides the zoo's). At
// registration the registry:
//
//   1. builds the base engine at B=1 (partition, profiles, placement, plan)
//      — compile artifacts and profile statistics flow through the PR-4
//      content-addressed caches, so structurally shared subgraphs across
//      resident models compile and profile once (the registration-delta
//      stats below make the dedup measurable);
//   2. seeds batch-bucket boundaries from the PR-7 crossover certificates
//      (analysis/symbolic/crossover.hpp) and runs the scheduler once per
//      bucket at the bucket's representative batch, recording one placement
//      per bucket — the "plan per bucket" the paper's batch-crossover data
//      calls for. Each bucket engine's plan is published as the plan of
//      the bucket's representative batch;
//   3. lazily instantiates the concrete ExecutionPlan for each batch size a
//      coalesced pickup actually forms, under the bucket's placement, and
//      publishes it behind a shared_ptr snapshot: build outside the lock,
//      publish under it — readers never block on a build.
//
// Recalibration swaps bucket 0's placement (apply_placement): the bucket's
// materialised plans are rebuilt the same build-then-publish way, and the
// model's plan_version advances. Executions already holding a snapshot
// finish on it.
//
// The registry is the shared, read-mostly substrate under FleetServer;
// plan lookups, swaps and service estimates are thread-safe.

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "duet/engine.hpp"
#include "sched/batch_buckets.hpp"

namespace duet::serve {

using BatchedGraphFactory = std::function<Graph(int64_t batch)>;

struct ModelRegistryOptions {
  DuetOptions engine;
  // Coalescing range: plans exist for batches in [1, max_batch].
  int64_t max_batch = 32;
  // Bucket-table cap (make_batch_buckets keeps the smallest boundaries).
  size_t max_buckets = 4;
  // Seed bucket boundaries from the crossover certificates. Off = one
  // bucket [1, max_batch], i.e. the single-plan baseline the efficacy gate
  // compares against.
  bool crossover_buckets = true;
};

// Compile/profile cache activity observed during one registration — the
// registry-level dedup surface. Deltas of the process-global PR-4 cache
// stats, so they are meaningful when registrations do not race other
// engine construction (tests and the CLI register sequentially).
struct RegistrationCacheDelta {
  std::string model;
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
  uint64_t profile_hits = 0;
  uint64_t profile_misses = 0;

  double compile_hit_rate() const {
    const uint64_t total = compile_hits + compile_misses;
    return total > 0 ? static_cast<double>(compile_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

// A plan snapshot plus what it was published as.
struct ServingPlan {
  std::shared_ptr<const ExecutionPlan> plan;
  uint64_t version = 0;  // the model's plan generation at lookup
  size_t bucket = 0;
};

struct RegistryCacheStats {
  std::vector<RegistrationCacheDelta> registrations;
  // Sums over all registrations.
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
  uint64_t profile_hits = 0;
  uint64_t profile_misses = 0;

  double compile_dedup_ratio() const {
    const uint64_t total = compile_hits + compile_misses;
    return total > 0 ? static_cast<double>(compile_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
  std::string to_string() const;
};

// One resident model: base engine, bucket table with one placement per
// bucket, and the per-batch plan cache.
class ResidentModel {
 public:
  ResidentModel(std::string name, BatchedGraphFactory factory,
                const ModelRegistryOptions& options);

  ResidentModel(const ResidentModel&) = delete;
  ResidentModel& operator=(const ResidentModel&) = delete;

  const std::string& name() const { return name_; }
  const DuetEngine& engine() const { return *engine_; }
  const std::vector<BatchBucket>& buckets() const { return buckets_; }
  // By value: apply_placement may replace bucket 0's concurrently.
  Placement bucket_placement(size_t bucket) const;
  size_t bucket_of(int64_t batch) const;
  int64_t max_batch() const { return options_.max_batch; }

  // Throws duet::Error unless `feeds` binds exactly the graph's inputs
  // with their batch-1 shapes and dtypes (the signature is cached at
  // construction).
  void check_feeds(const std::map<NodeId, Tensor>& feeds) const;

  // The plan serving a batch-B coalesced execution: factory(B) compiled
  // under the placement of B's bucket. Built on first use, then shared.
  std::shared_ptr<const ExecutionPlan> plan_for_batch(int64_t batch);
  // plan_for_batch plus the plan generation and bucket, read atomically
  // with the snapshot (what a serving worker records per response).
  ServingPlan serving_plan(int64_t batch);
  // Same batch-B graph under the registration-time base (B=1) placement
  // for every B — the single-plan baseline of the efficacy gate. Swaps
  // never move it.
  std::shared_ptr<const ExecutionPlan> baseline_plan_for_batch(int64_t batch);

  // Publishes `placement` for bucket 0: rebuilds the bucket's materialised
  // batch plans outside the lock, swaps the snapshots, drops the bucket's
  // memoized service times and advances plan_version(). Returns the new
  // version. Concurrent swaps serialize.
  uint64_t apply_placement(const Placement& placement);
  uint64_t plan_version() const;

  // Modeled service times the virtual-time fleet simulator replays
  // (deterministic, noise-free). Exact plans are measured only at each
  // bucket's endpoints — transiently, so a max_batch-64 sweep does not pin
  // one compiled plan per batch size — and batches inside a bucket
  // interpolate linearly between its endpoints. The placement flip at a
  // bucket boundary stays an exact discontinuity; both the bucketed and the
  // single-plan baseline curve sample the same grid so their difference is
  // placement, not interpolation error.
  double modeled_service_s(int64_t batch);
  double baseline_service_s(int64_t batch);

 private:
  // One graph input a request must bind.
  struct InputSpec {
    Shape shape;
    DType dtype = DType::kFloat32;
  };

  ServingPlan plan_for(int64_t batch, bool bucketed);
  // factory(batch) compiled under `placement`; in checked mode it passes the
  // plan checker (lint::check_plan) before any caller publishes or runs it.
  ExecutionPlan build_plan(int64_t batch, const Placement& placement) const;
  // Exact modeled makespan at `batch`; on a cache miss it measures the
  // published plan, or builds a throwaway one if none is, and memoizes only
  // the scalar.
  double probe_service_s(int64_t batch, bool bucketed);
  double interpolated_service_s(int64_t batch, bool bucketed);

  std::string name_;
  BatchedGraphFactory factory_;
  ModelRegistryOptions options_;
  std::unique_ptr<DuetEngine> engine_;  // base, B=1
  std::vector<BatchBucket> buckets_;
  Placement baseline_placement_;  // registration-time bucket-0 placement
  std::map<NodeId, InputSpec> inputs_;

  // Everything below plans_mutex_ is guarded by it. Lookups build outside
  // the lock and publish under it, unless a swap moved the version
  // meanwhile.
  mutable std::mutex plans_mutex_;
  std::vector<Placement> placements_;  // aligned with buckets_
  uint64_t plan_version_ = 1;
  // Plan snapshots keyed by (batch, bucketed?).
  std::map<std::pair<int64_t, bool>, std::shared_ptr<const ExecutionPlan>>
      plans_;
  // Deterministic (noise-free) modeled makespans, same key.
  std::map<std::pair<int64_t, bool>, double> service_cache_;
  std::mutex swap_mutex_;  // serializes apply_placement
};

class ModelRegistry {
 public:
  explicit ModelRegistry(ModelRegistryOptions options = {});

  // Builds the resident model (engine + bucket placements) and records the
  // registration's cache delta. Returns the model index FleetRequest uses.
  // Throws on a duplicate name.
  int register_model(const std::string& name, BatchedGraphFactory factory);

  size_t size() const { return models_.size(); }
  int index_of(const std::string& name) const;  // -1 when absent
  ResidentModel& model(int index);
  const ResidentModel& model(int index) const;

  const ModelRegistryOptions& options() const { return options_; }
  const RegistryCacheStats& cache_stats() const { return cache_stats_; }

 private:
  ModelRegistryOptions options_;
  std::vector<std::unique_ptr<ResidentModel>> models_;
  RegistryCacheStats cache_stats_;
};

}  // namespace duet::serve
