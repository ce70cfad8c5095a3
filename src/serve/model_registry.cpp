#include "serve/model_registry.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/diagnostics.hpp"
#include "analysis/lint/lint.hpp"
#include "analysis/plan_validator.hpp"
#include "analysis/symbolic/crossover.hpp"
#include "analysis/symbolic/sym_shape_inference.hpp"
#include "common/error.hpp"
#include "compiler/compile_cache.hpp"
#include "compiler/pass.hpp"
#include "profile/profile_cache.hpp"

namespace duet::serve {

std::string RegistryCacheStats::to_string() const {
  std::ostringstream os;
  os << "registry caches: compile " << compile_hits << "/" << (compile_hits + compile_misses)
     << " hits (dedup " << compile_dedup_ratio() << "), profile "
     << profile_hits << "/" << (profile_hits + profile_misses) << " hits\n";
  for (const RegistrationCacheDelta& d : registrations) {
    os << "  " << d.model << ": compile +" << d.compile_misses << " miss/+"
       << d.compile_hits << " hit, profile +" << d.profile_misses << " miss/+"
       << d.profile_hits << " hit\n";
  }
  return os.str();
}

ResidentModel::ResidentModel(std::string name, BatchedGraphFactory factory,
                             const ModelRegistryOptions& options)
    : name_(std::move(name)),
      factory_(std::move(factory)),
      options_(options) {
  DUET_CHECK_GE(options_.max_batch, 1);
  engine_ = std::make_unique<DuetEngine>(factory_(1), options_.engine);
  for (NodeId id : engine_->model().input_ids()) {
    const Node& node = engine_->model().node(id);
    inputs_.emplace(id, InputSpec{node.out_shape, node.out_dtype});
  }

  // Bucket boundaries from the PR-7 certificates: scan the batch symbol over
  // the coalescing range on the same optimized/partitioned graph the
  // analysis CLI certifies. The passes run on a copy of the engine's
  // factory(1) graph — copies alias constant buffers and passes clone before
  // they write — instead of building the model a second time.
  std::vector<int64_t> boundaries;
  if (options_.crossover_buckets && options_.max_batch > 1) {
    const Graph optimized =
        PassManager::standard(options_.engine.compile).run(engine_->model());
    const Partition partition =
        partition_phased(optimized, options_.engine.partition);
    const symbolic::SymbolicShapes shapes =
        symbolic::infer_symbolic(optimized, symbolic::SymbolicOptions{});
    symbolic::CrossoverOptions x_opts;
    x_opts.lo = 1;
    x_opts.hi = options_.max_batch;
    const symbolic::CrossoverReport report =
        symbolic::analyze_crossover(optimized, partition, shapes, x_opts);
    boundaries = symbolic::serving_bucket_boundaries(report, options_.max_batch);
  }
  buckets_ = make_batch_buckets(std::move(boundaries), options_.max_batch,
                                options_.max_buckets);

  // One scheduler run per bucket at its representative batch. Bucket 0's
  // representative is batch 1, which is exactly the base engine. Each
  // engine's plan is exactly what build_plan(rep, placement) would rebuild
  // (same factory graph, partitioner, placement, compile options and device
  // params), so it is published as the bucket's rep plan instead of being
  // built again on first use.
  baseline_placement_ = engine_->report().schedule.placement;
  placements_.reserve(buckets_.size());
  plans_.emplace(std::make_pair(int64_t{1}, true),
                 std::make_shared<const ExecutionPlan>(engine_->plan()));
  for (const BatchBucket& bucket : buckets_) {
    if (bucket.rep() == 1) {
      placements_.push_back(baseline_placement_);
      continue;
    }
    DuetEngine bucket_engine(factory_(bucket.rep()), options_.engine);
    const Placement& placement = bucket_engine.report().schedule.placement;
    DUET_CHECK_EQ(placement.size(), baseline_placement_.size())
        << "factory(" << bucket.rep()
        << ") partitions differently from factory(1) for model " << name_;
    placements_.push_back(placement);
    plans_.emplace(std::make_pair(bucket.rep(), true),
                   std::make_shared<const ExecutionPlan>(bucket_engine.plan()));
  }
}

Placement ResidentModel::bucket_placement(size_t bucket) const {
  DUET_CHECK_LT(bucket, placements_.size());
  std::lock_guard<std::mutex> lock(plans_mutex_);
  return placements_[bucket];
}

size_t ResidentModel::bucket_of(int64_t batch) const {
  return bucket_for(buckets_, batch);
}

void ResidentModel::check_feeds(const std::map<NodeId, Tensor>& feeds) const {
  DUET_CHECK_EQ(feeds.size(), inputs_.size())
      << "request for model " << name_ << " binds the wrong number of inputs";
  for (const auto& [id, tensor] : feeds) {
    const auto it = inputs_.find(id);
    DUET_CHECK(it != inputs_.end())
        << "request for model " << name_ << " feeds unknown input node " << id;
    DUET_CHECK(tensor.shape() == it->second.shape &&
               tensor.dtype() == it->second.dtype)
        << "request for model " << name_ << " feeds input node " << id
        << " as " << tensor.shape().to_string() << " "
        << dtype_name(tensor.dtype()) << ", expected "
        << it->second.shape.to_string() << " "
        << dtype_name(it->second.dtype);
  }
}

std::shared_ptr<const ExecutionPlan> ResidentModel::plan_for_batch(
    int64_t batch) {
  return plan_for(batch, /*bucketed=*/true).plan;
}

ServingPlan ResidentModel::serving_plan(int64_t batch) {
  return plan_for(batch, /*bucketed=*/true);
}

std::shared_ptr<const ExecutionPlan> ResidentModel::baseline_plan_for_batch(
    int64_t batch) {
  return plan_for(batch, /*bucketed=*/false).plan;
}

uint64_t ResidentModel::plan_version() const {
  std::lock_guard<std::mutex> lock(plans_mutex_);
  return plan_version_;
}

ExecutionPlan ResidentModel::build_plan(int64_t batch,
                                        const Placement& placement) const {
  Graph graph = factory_(batch);
  Partition partition = partition_phased(graph, options_.engine.partition);
  DUET_CHECK_EQ(partition.subgraphs.size(), placement.size())
      << "batched partition diverged for model " << name_;
  ExecutionPlan plan =
      ExecutionPlan::build(graph, std::move(partition), placement,
                           engine_->devices(), options_.engine.compile);
  lint::check_plan(plan, "batch-" + std::to_string(batch) + " plan for \"" +
                             name_ + "\" is invalid");
  return plan;
}

ServingPlan ResidentModel::plan_for(int64_t batch, bool bucketed) {
  DUET_CHECK_GE(batch, 1);
  DUET_CHECK_LE(batch, options_.max_batch)
      << "batch beyond the registry's coalescing range";
  const std::pair<int64_t, bool> key{batch, bucketed};
  const size_t bucket = bucket_of(batch);
  Placement placement;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) return {it->second, plan_version_, bucket};
    placement = bucketed ? placements_[bucket] : baseline_placement_;
    version = plan_version_;
  }
  // Build outside the lock (compiles are slow; the caches keep them warm),
  // publish under it. A losing racer adopts the winner's snapshot. A build
  // that raced a swap is handed out — it was current when asked for — but
  // never published.
  auto plan =
      std::make_shared<const ExecutionPlan>(build_plan(batch, placement));
  std::lock_guard<std::mutex> lock(plans_mutex_);
  if (version != plan_version_) return {std::move(plan), version, bucket};
  return {plans_.emplace(key, std::move(plan)).first->second, version, bucket};
}

uint64_t ResidentModel::apply_placement(const Placement& placement) {
  DUET_CHECK_EQ(placement.size(), baseline_placement_.size())
      << "placement does not match model " << name_;
  if (verification_enabled()) {
    verify_placement(placement, engine_->partition())
        .throw_if_failed("placement swapped into \"" + name_ +
                         "\" is invalid");
  }
  std::lock_guard<std::mutex> serialize(swap_mutex_);
  const auto in_bucket0 = [this](const std::pair<int64_t, bool>& key) {
    return key.second && bucket_of(key.first) == 0;
  };
  std::vector<int64_t> batches;
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    for (const auto& [key, plan] : plans_) {
      if (in_bucket0(key)) batches.push_back(key.first);
    }
  }
  std::vector<std::shared_ptr<const ExecutionPlan>> rebuilt;
  rebuilt.reserve(batches.size());
  for (int64_t batch : batches) {
    rebuilt.push_back(
        std::make_shared<const ExecutionPlan>(build_plan(batch, placement)));
  }

  std::lock_guard<std::mutex> lock(plans_mutex_);
  placements_.front() = placement;
  ++plan_version_;
  // Bucket-0 entries published under the old placement while the rebuild
  // ran go too; they rebuild lazily under the new one.
  const auto stale = [&](const auto& entry) { return in_bucket0(entry.first); };
  std::erase_if(plans_, stale);
  std::erase_if(service_cache_, stale);
  for (size_t i = 0; i < batches.size(); ++i) {
    plans_.emplace(std::make_pair(batches[i], true), std::move(rebuilt[i]));
  }
  return plan_version_;
}

double ResidentModel::probe_service_s(int64_t batch, bool bucketed) {
  DUET_CHECK_GE(batch, 1);
  DUET_CHECK_LE(batch, options_.max_batch);
  const std::pair<int64_t, bool> key{batch, bucketed};
  std::shared_ptr<const ExecutionPlan> plan;
  Placement placement;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    const auto it = service_cache_.find(key);
    if (it != service_cache_.end()) return it->second;
    const auto published = plans_.find(key);
    if (published != plans_.end()) plan = published->second;
    placement = bucketed ? placements_[bucket_of(batch)] : baseline_placement_;
    version = plan_version_;
  }
  // A published plan is measured as is; otherwise a throwaway plan is built,
  // measured and never published. Racing probes duplicate a little work and
  // agree on the (deterministic) answer; one that raced a swap is not
  // memoized.
  if (plan == nullptr) {
    plan = std::make_shared<const ExecutionPlan>(build_plan(batch, placement));
  }
  SimExecutor executor(engine_->devices());
  const double s = executor.run_latency_only(*plan, /*with_noise=*/false);
  std::lock_guard<std::mutex> lock(plans_mutex_);
  if (version == plan_version_) service_cache_.emplace(key, s);
  return s;
}

double ResidentModel::interpolated_service_s(int64_t batch, bool bucketed) {
  DUET_CHECK_GE(batch, 1);
  const int64_t b = std::min(batch, options_.max_batch);
  const BatchBucket& bucket = buckets_[bucket_of(b)];
  const double at_lo = probe_service_s(bucket.lo, bucketed);
  if (b == bucket.lo || bucket.lo == bucket.hi) return at_lo;
  const double at_hi = probe_service_s(bucket.hi, bucketed);
  const double t = static_cast<double>(b - bucket.lo) /
                   static_cast<double>(bucket.hi - bucket.lo);
  return at_lo + t * (at_hi - at_lo);
}

double ResidentModel::modeled_service_s(int64_t batch) {
  return interpolated_service_s(batch, /*bucketed=*/true);
}

double ResidentModel::baseline_service_s(int64_t batch) {
  return interpolated_service_s(batch, /*bucketed=*/false);
}

ModelRegistry::ModelRegistry(ModelRegistryOptions options)
    : options_(std::move(options)) {}

int ModelRegistry::register_model(const std::string& name,
                                  BatchedGraphFactory factory) {
  DUET_CHECK(index_of(name) < 0) << "model already registered: " << name;
  const CompileCache::Stats compile_before = CompileCache::instance().stats();
  const ProfileCache::Stats profile_before = ProfileCache::instance().stats();

  models_.push_back(
      std::make_unique<ResidentModel>(name, std::move(factory), options_));

  const CompileCache::Stats compile_after = CompileCache::instance().stats();
  const ProfileCache::Stats profile_after = ProfileCache::instance().stats();
  RegistrationCacheDelta delta;
  delta.model = name;
  delta.compile_hits = compile_after.hits - compile_before.hits;
  delta.compile_misses = compile_after.misses - compile_before.misses;
  delta.profile_hits = profile_after.hits - profile_before.hits;
  delta.profile_misses = profile_after.misses - profile_before.misses;
  cache_stats_.registrations.push_back(delta);
  cache_stats_.compile_hits += delta.compile_hits;
  cache_stats_.compile_misses += delta.compile_misses;
  cache_stats_.profile_hits += delta.profile_hits;
  cache_stats_.profile_misses += delta.profile_misses;
  return static_cast<int>(models_.size()) - 1;
}

int ModelRegistry::index_of(const std::string& name) const {
  for (size_t i = 0; i < models_.size(); ++i) {
    if (models_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

ResidentModel& ModelRegistry::model(int index) {
  DUET_CHECK_GE(index, 0);
  DUET_CHECK_LT(static_cast<size_t>(index), models_.size());
  return *models_[index];
}

const ResidentModel& ModelRegistry::model(int index) const {
  DUET_CHECK_GE(index, 0);
  DUET_CHECK_LT(static_cast<size_t>(index), models_.size());
  return *models_[index];
}

}  // namespace duet::serve
