#include "serve/fleet.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "serve/batching.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace duet::serve {

using telemetry::FlightKind;
using telemetry::FlightRecorder;

namespace {

// Windowed SLO view behind slo_snapshot(): 10 s of history in 10 slots.
constexpr double kSloWindowS = 10.0;
constexpr int kSloBuckets = 10;

std::vector<TenantClass> normalize_tenants(std::vector<TenantClass> tenants) {
  if (tenants.empty()) tenants.push_back(TenantClass{});
  return tenants;
}

}  // namespace

FleetServer::FleetServer(ModelRegistry& registry, FleetOptions options)
    : registry_(registry),
      options_([&] {
        options.tenants = normalize_tenants(std::move(options.tenants));
        options.max_batch =
            std::min(options.max_batch, registry.options().max_batch);
        return std::move(options);
      }()),
      paused_(options_.start_paused),
      policy_(options_.tenants, options_.queue_capacity),
      counters_(options_.tenants.size()),
      batch_size_metric_(telemetry::histogram("fleet.batch_size")),
      slo_(kSloWindowS, kSloBuckets),
      dump_trigger_(options_.observability.trigger) {
  DUET_CHECK_GT(options_.workers, 0);
  DUET_CHECK_GT(options_.queue_capacity, 0u);
  DUET_CHECK_GE(options_.max_batch, 1);
  DUET_CHECK_GT(registry_.size(), 0u) << "fleet over an empty registry";
  for (const TenantClass& tenant : options_.tenants) {
    TenantMetrics m;
    m.offered = &telemetry::counter("fleet.offered." + tenant.name);
    m.rejected = &telemetry::counter("fleet.rejected." + tenant.name);
    m.shed = &telemetry::counter("fleet.shed." + tenant.name);
    m.completed = &telemetry::counter("fleet.completed." + tenant.name);
    tenant_metrics_.push_back(m);
  }
  drift_.reserve(registry_.size());
  for (size_t m = 0; m < registry_.size(); ++m) {
    const ResidentModel& resident = registry_.model(static_cast<int>(m));
    drift_.emplace_back(resident.engine().partition().subgraphs.size());
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  DUET_LOG_INFO << "FleetServer up: " << options_.workers << " workers, "
                << registry_.size() << " resident models, "
                << options_.tenants.size() << " tenant classes, max batch "
                << options_.max_batch;
}

FleetServer::~FleetServer() { shutdown(); }

std::future<FleetResponse> FleetServer::submit(int model, int tenant,
                                               std::map<NodeId, Tensor> feeds,
                                               double deadline_s) {
  DUET_CHECK_GE(model, 0);
  DUET_CHECK_LT(static_cast<size_t>(model), registry_.size());
  DUET_CHECK_GE(tenant, 0);
  DUET_CHECK_LT(static_cast<size_t>(tenant), options_.tenants.size());
  // Bad input fails this request on the caller's thread, before anything is
  // counted — it must never reach a worker.
  registry_.model(model).check_feeds(feeds);

  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const double arrival_s = clock_.elapsed();
  const size_t t = static_cast<size_t>(tenant);
  const double rel = deadline_s < 0.0 ? options_.tenants[t].deadline_s
                                      : deadline_s;

  Pending pending;
  pending.trace_id = id;
  pending.tenant = tenant;
  pending.arrival_s = arrival_s;
  pending.deadline_s = rel > 0.0 ? arrival_s + rel : 0.0;
  pending.feeds = std::move(feeds);
  std::future<FleetResponse> future = pending.promise.get_future();

  FleetRequest request;
  request.id = id;
  request.tenant = tenant;
  request.model = model;
  request.arrival_s = arrival_s;
  request.deadline_s = pending.deadline_s;

  counters_[t].offered.fetch_add(1, std::memory_order_relaxed);

  bool accepted = false;
  uint64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth = policy_.size();
    if (!draining_ && policy_.push(request)) {
      accepted = true;
      // Admission effects land before any worker can pick the request.
      counters_[t].accepted.fetch_add(1, std::memory_order_relaxed);
      FlightRecorder::instance().record(FlightKind::kEnqueue, id, depth);
      pending_.emplace(id, std::move(pending));
      ++inflight_;
      max_queue_depth_ = std::max(max_queue_depth_, policy_.size());
    }
  }
  const double now_us = telemetry::now_us();
  slo_.record_offered(now_us);
  slo_.record_queue_depth(now_us, static_cast<double>(depth));
  if (accepted) {
    tenant_metrics_[t].offered->add(1);
    queue_cv_.notify_one();
    return future;
  }

  // Refused (full or draining): every side effect, then the caller's future
  // resolves immediately.
  counters_[t].rejected.fetch_add(1, std::memory_order_relaxed);
  tenant_metrics_[t].rejected->add(1);
  slo_.record_rejected(now_us);
  FlightRecorder::instance().record(FlightKind::kReject, id, depth);
  FleetResponse response;
  response.status = RequestStatus::kRejected;
  response.wall_latency_s = clock_.elapsed() - arrival_s;
  pending.promise.set_value(std::move(response));
  return future;
}

void FleetServer::resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void FleetServer::drain() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_ = true;
  }
  resume();  // a paused server can never drain its backlog
  queue_cv_.notify_all();
  std::unique_lock<std::mutex> lock(queue_mutex_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void FleetServer::shutdown() {
  if (shut_down_.exchange(true)) return;
  drain();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

FleetServer::Pending FleetServer::take_pending(uint64_t id) {
  const auto it = pending_.find(id);
  DUET_CHECK(it != pending_.end()) << "picked request has no payload";
  Pending out = std::move(it->second);
  pending_.erase(it);
  return out;
}

void FleetServer::resolve(Pending& pending, FleetResponse&& response) {
  response.wall_latency_s = clock_.elapsed() - pending.arrival_s;
  pending.promise.set_value(std::move(response));
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    DUET_CHECK_GT(inflight_, 0u);
    --inflight_;
  }
  inflight_cv_.notify_all();
}

void FleetServer::on_outcome(bool shed, bool breach) {
  if (breach) {
    slo_breaches_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("serve.slo_breaches").add(1);
    if (dump_trigger_.on_deadline_miss(telemetry::now_us())) {
      maybe_flight_dump("deadline-miss-burst");
    }
  }
  if (dump_trigger_.on_outcome(shed)) maybe_flight_dump("shed-rate");
}

void FleetServer::shed_request(Pending& pending, double pickup_s) {
  const size_t t = static_cast<size_t>(pending.tenant);
  const double wait_s = pickup_s - pending.arrival_s;
  counters_[t].shed.fetch_add(1, std::memory_order_relaxed);
  tenant_metrics_[t].shed->add(1);
  const double now_us = telemetry::now_us();
  slo_.record_queue_wait(now_us, wait_s * 1e6);
  slo_.record_shed(now_us);
  FlightRecorder::instance().record(FlightKind::kShed, pending.trace_id,
                                    static_cast<uint64_t>(wait_s * 1e6));
  on_outcome(/*shed=*/true, /*breach=*/true);
  FleetResponse response;
  response.status = RequestStatus::kShed;
  response.wall_wait_s = wait_s;
  resolve(pending, std::move(response));
}

void FleetServer::worker_loop() {
  // Each worker is a full engine replica: its own device pair (same seed
  // derivation as the engine's post-profiling devices, so modeled times
  // match DuetEngine::latency) and per-run arenas inside SimExecutor::run.
  // Execution never contends, and with noise off the outputs are
  // bit-identical whichever worker (and whatever coalescing) served them.
  DevicePair devices =
      make_default_device_pair(registry_.options().engine.seed ^
                               0x5EEDFACEull);
  SimExecutor executor(devices);

  {
    std::unique_lock<std::mutex> lock(pause_mutex_);
    pause_cv_.wait(lock, [this] { return !paused_; });
  }

  while (true) {
    PickResult picked;
    std::vector<Pending> batch_pending;
    std::vector<Pending> shed_pending;
    double pickup_s = 0.0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return draining_ || !policy_.empty(); });
      if (policy_.empty()) {
        if (draining_) return;
        continue;
      }
      pickup_s = clock_.elapsed();
      picked = policy_.pick(pickup_s, options_.max_batch);
      shed_pending.reserve(picked.shed.size());
      for (const FleetRequest& r : picked.shed) {
        shed_pending.push_back(take_pending(r.id));
      }
      batch_pending.reserve(picked.batch.size());
      for (const FleetRequest& r : picked.batch) {
        batch_pending.push_back(take_pending(r.id));
      }
    }

    for (Pending& p : shed_pending) shed_request(p, pickup_s);
    if (picked.batch.empty()) continue;

    const int model = picked.batch.front().model;
    const int64_t batch = static_cast<int64_t>(picked.batch.size());
    ResidentModel& resident = registry_.model(model);
    const ServingPlan serving = resident.serving_plan(batch);

    std::vector<const std::map<NodeId, Tensor>*> feed_ptrs;
    feed_ptrs.reserve(batch_pending.size());
    for (const Pending& p : batch_pending) feed_ptrs.push_back(&p.feeds);
    const std::map<NodeId, Tensor> stacked = stack_feeds(feed_ptrs);

    const double pickup_us = telemetry::now_us();
    for (const Pending& p : batch_pending) {
      const double wait_us = (pickup_s - p.arrival_s) * 1e6;
      slo_.record_queue_wait(pickup_us, wait_us);
      FlightRecorder::instance().record(FlightKind::kPickup, p.trace_id,
                                        static_cast<uint64_t>(wait_us));
    }
    if (batch > 1) {
      FlightRecorder::instance().record(FlightKind::kCoalesce,
                                        batch_pending.front().trace_id,
                                        static_cast<uint64_t>(batch),
                                        static_cast<uint64_t>(model));
    }

    ExecutionResult result;
    {
      // Request context: the request span, and the timeline events, flight
      // launch/transfer records and spans inside run(), carry this id.
      telemetry::TraceScope trace(batch_pending.front().trace_id);
      telemetry::ScopedSpan span("request", "serve", resident.name());
      result = executor.run(*serving.plan, stacked, options_.with_noise);
    }
    std::vector<std::vector<Tensor>> rows =
        split_outputs(result.outputs, batch_pending.size());

    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      for (const FleetRequest& r : picked.batch) {
        policy_.charge(r.tenant,
                       result.latency_s / static_cast<double>(batch));
      }
    }

    const double done_s = clock_.elapsed();
    batch_size_metric_.observe(static_cast<double>(batch));
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++batches_;
      served_ += static_cast<uint64_t>(batch);
      if (batch > 1) coalesced_ += static_cast<uint64_t>(batch);
      ++batch_histogram_[batch];
      for (const Pending& p : batch_pending) {
        modeled_latency_.add(result.latency_s);
        wall_wait_.add(pickup_s - p.arrival_s);
      }
      // Recalibration learns bucket 0's costs from batch-1 timelines.
      if (batch == 1) {
        drift_[static_cast<size_t>(model)].record(result.timeline);
      }
    }
    const double done_us = telemetry::now_us();
    for (size_t i = 0; i < batch_pending.size(); ++i) {
      Pending& p = batch_pending[i];
      const size_t t = static_cast<size_t>(p.tenant);
      const double latency_s = done_s - p.arrival_s;
      const bool late = p.deadline_s > 0.0 && done_s > p.deadline_s;
      counters_[t].completed.fetch_add(1, std::memory_order_relaxed);
      if (late) {
        counters_[t].completed_late.fetch_add(1, std::memory_order_relaxed);
      }
      tenant_metrics_[t].completed->add(1);
      slo_.record_completed(done_us, latency_s * 1e6, late);
      on_outcome(/*shed=*/false, /*breach=*/late);
      FlightRecorder::instance().record(
          FlightKind::kComplete, p.trace_id, static_cast<uint64_t>(batch),
          static_cast<uint64_t>(latency_s * 1e6));
      FleetResponse response;
      response.status = RequestStatus::kOk;
      response.outputs = std::move(rows[i]);
      response.modeled_latency_s = result.latency_s;
      response.batch = batch;
      response.bucket = serving.bucket;
      response.plan_version = serving.version;
      response.wall_wait_s = pickup_s - p.arrival_s;
      resolve(p, std::move(response));
    }
  }
}

void FleetServer::apply_placement(int model, const Placement& placement) {
  std::lock_guard<std::mutex> serialize(recalibrate_mutex_);
  swap_placement(model, placement);
}

void FleetServer::swap_placement(int model, const Placement& placement) {
  const uint64_t version = registry_.model(model).apply_placement(placement);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter("serve.plan_swaps").add(1);
  slo_.record_plan_version(telemetry::now_us(), version);
  FlightRecorder::instance().record(FlightKind::kSwap, 0, version);
}

RecalibrationResult FleetServer::recalibrate_now(
    int model, const RecalibrationOptions& options) {
  DUET_CHECK_GE(model, 0);
  DUET_CHECK_LT(static_cast<size_t>(model), registry_.size());
  std::lock_guard<std::mutex> serialize(recalibrate_mutex_);
  const ResidentModel& resident = registry_.model(model);
  DriftAccumulator observed(0);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    observed = drift_[static_cast<size_t>(model)];
    ++recalibrations_;
  }
  const Placement current = resident.bucket_placement(0);
  // No drift samples means no batch-1 execution since the server started:
  // re-running the scheduler would only reproduce the offline decision.
  if (observed.total_samples() == 0) {
    telemetry::counter("serve.recalibrations.skipped_empty").add(1);
    RecalibrationResult empty;
    empty.placement = current;
    return empty;
  }
  const telemetry::SloSnapshot slo = slo_.snapshot(telemetry::now_us());
  if (slo.breaches > 0) {
    DUET_LOG_INFO << "recalibrating " << resident.name() << " with "
                  << slo.breaches << " SLO breaches in the last "
                  << slo.window_s << "s window (p99 " << slo.latency_p99_us
                  << "us)";
  }
  const DuetEngine& engine = resident.engine();
  RecalibrationResult result = recalibrate(
      engine.model(), engine.partition(), engine.report().profiles, observed,
      current, engine.devices().link->params(), options);
  telemetry::counter("serve.recalibrations").add(1);
  if (result.swapped) {
    DUET_LOG_INFO << "recalibration swap for " << resident.name()
                  << ": predicted " << result.predicted_current_s << "s -> "
                  << result.predicted_new_s << "s";
    swap_placement(model, result.placement);
  }
  return result;
}

void FleetServer::maybe_flight_dump(const std::string& reason) {
  if (options_.observability.dump_dir.empty()) return;
  const telemetry::FlightDumpSummary summary = FlightRecorder::instance().dump(
      options_.observability.dump_dir, reason, /*window_ms=*/0.0);
  if (summary.trace_path.empty()) {
    DUET_LOG_WARN << "flight dump (" << reason << ") could not be written to "
                  << options_.observability.dump_dir;
    return;
  }
  flight_dumps_.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter("serve.flight_dumps").add(1);
  DUET_LOG_WARN << "flight dump (" << reason << "): " << summary.events
                << " events, " << summary.complete_paths
                << " complete request paths -> " << summary.trace_path;
}

FleetServerStats FleetServer::stats() const {
  FleetServerStats s;
  AdmissionCounters total;
  for (size_t t = 0; t < options_.tenants.size(); ++t) {
    FleetTenantStats ts;
    ts.name = options_.tenants[t].name;
    ts.admission = counters_[t].snapshot();
    total.offered += ts.admission.offered;
    total.accepted += ts.admission.accepted;
    total.rejected += ts.admission.rejected;
    total.shed += ts.admission.shed;
    total.completed += ts.admission.completed;
    total.completed_late += ts.admission.completed_late;
    s.tenants.push_back(std::move(ts));
  }
  s.total = total.snapshot();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    s.batches = batches_;
    s.coalesced_requests = coalesced_;
    s.mean_batch = batches_ > 0 ? static_cast<double>(served_) /
                                      static_cast<double>(batches_)
                                : 0.0;
    s.batch_histogram = batch_histogram_;
    s.modeled_latency = modeled_latency_.summarize();
    s.wall_wait = wall_wait_.summarize();
    s.recalibrations = recalibrations_;
    for (const DriftAccumulator& drift : drift_) {
      s.drift_samples += drift.total_samples();
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.max_queue_depth = max_queue_depth_;
  }
  s.slo_breaches = slo_breaches_.load(std::memory_order_relaxed);
  s.flight_dumps = flight_dumps_.load(std::memory_order_relaxed);
  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.plan_version = plan_version();
  return s;
}

uint64_t FleetServer::plan_version() const {
  uint64_t newest = 0;
  for (size_t m = 0; m < registry_.size(); ++m) {
    newest = std::max(newest,
                      registry_.model(static_cast<int>(m)).plan_version());
  }
  return newest;
}

telemetry::SloSnapshot FleetServer::slo_snapshot() const {
  telemetry::SloSnapshot snap = slo_.snapshot(telemetry::now_us());
  // No swap landed inside the window: report the live plan version rather
  // than 0, so operators always see which plan is serving.
  if (snap.plan_version == 0) snap.plan_version = plan_version();
  return snap;
}

}  // namespace duet::serve
