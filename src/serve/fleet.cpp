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

FleetResponse response_with(RequestStatus status) {
  FleetResponse response;
  response.status = status;
  return response;
}

}  // namespace

FleetServer::FleetServer(ModelRegistry& registry, FleetOptions options)
    : FleetServer(registry, std::move(options), &telemetry::now_us) {}

FleetServer::FleetServer(ModelRegistry& registry, FleetOptions options,
                         Clock slo_clock)
    : registry_(registry),
      options_([&] {
        if (options.tenants.empty()) options.tenants.push_back(TenantClass{});
        options.max_batch =
            std::min(options.max_batch, registry.options().max_batch);
        return std::move(options);
      }()),
      paused_(options_.start_paused),
      lifecycle_(options_.tenants, options_.queue_capacity),
      batch_size_metric_(telemetry::histogram("fleet.batch_size")),
      slo_clock_(slo_clock),
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
    m.failed = &telemetry::counter("fleet.failed." + tenant.name);
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
  // Bad input fails this request on the caller's thread, before anything is
  // counted — it must never reach a worker.
  registry_.model(model).check_feeds(feeds);

  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const double arrival_s = clock_.elapsed();
  const FleetRequest request =
      lifecycle_.request(id, tenant, model, arrival_s, deadline_s);
  Pending pending;
  pending.feeds = std::move(feeds);
  std::future<FleetResponse> future = pending.promise.get_future();

  bool accepted = false;
  uint64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth = lifecycle_.queue().size();
    accepted = lifecycle_.on_arrival(request);
    if (accepted) {
      // Admission effects land before any worker can pick the request.
      FlightRecorder::instance().record(FlightKind::kEnqueue, id, depth);
      pending_.emplace(id, std::move(pending));
    }
  }
  const size_t t = static_cast<size_t>(tenant);
  const double now_us = slo_clock_();
  // Every arrival is offered, accepted or not, as AdmissionCounters counts
  // it: offered = completed + shed + rejected + failed.
  tenant_metrics_[t].offered->add(1);
  slo_.record_offered(now_us);
  slo_.record_queue_depth(now_us, static_cast<double>(depth));
  if (accepted) {
    queue_cv_.notify_one();
    return future;
  }

  // Refused (full or draining): every side effect, then the caller's future
  // resolves immediately.
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
    lifecycle_.close();
  }
  resume();  // a paused server can never drain its backlog
  queue_cv_.notify_all();
  std::unique_lock<std::mutex> lock(queue_mutex_);
  inflight_cv_.wait(lock, [this] { return lifecycle_.quiescent(); });
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

void FleetServer::settle(const FleetRequest& request, Pending& pending,
                         double pickup_s, double done_s,
                         FleetResponse&& response) {
  const TenantMetrics& metrics =
      tenant_metrics_[static_cast<size_t>(request.tenant)];
  const double now_us = slo_clock_();
  if (response.status == RequestStatus::kOk) {
    const double latency_us = (done_s - request.arrival_s) * 1e6;
    const bool late = Lifecycle::late(request, done_s);
    metrics.completed->add(1);
    slo_.record_completed(now_us, latency_us, late);
    on_outcome(/*shed=*/false, /*breach=*/late);
    FlightRecorder::instance().record(FlightKind::kComplete, request.id,
                                      static_cast<uint64_t>(response.batch),
                                      static_cast<uint64_t>(latency_us));
  } else if (response.status == RequestStatus::kShed) {
    const double wait_us = (pickup_s - request.arrival_s) * 1e6;
    metrics.shed->add(1);
    slo_.record_queue_wait(now_us, wait_us);
    slo_.record_shed(now_us);
    FlightRecorder::instance().record(FlightKind::kShed, request.id,
                                      static_cast<uint64_t>(wait_us));
    on_outcome(/*shed=*/true, /*breach=*/true);
  } else {
    metrics.failed->add(1);
  }
  response.wall_wait_s = pickup_s - request.arrival_s;
  response.wall_latency_s = clock_.elapsed() - request.arrival_s;
  pending.promise.set_value(std::move(response));
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    lifecycle_.on_resolve();
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
      queue_cv_.wait(lock, [this] { return lifecycle_.wake(); });
      if (lifecycle_.queue().empty()) return;  // woken by drain()
      pickup_s = clock_.elapsed();
      picked = lifecycle_.on_pick(pickup_s, options_.max_batch);
      shed_pending.reserve(picked.shed.size());
      for (const FleetRequest& r : picked.shed) {
        shed_pending.push_back(take_pending(r.id));
      }
      batch_pending.reserve(picked.batch.size());
      for (const FleetRequest& r : picked.batch) {
        batch_pending.push_back(take_pending(r.id));
      }
    }

    for (size_t i = 0; i < picked.shed.size(); ++i) {
      settle(picked.shed[i], shed_pending[i], pickup_s, pickup_s,
             response_with(RequestStatus::kShed));
    }
    if (picked.batch.empty()) continue;

    const int model = picked.batch.front().model;
    const int64_t batch = static_cast<int64_t>(picked.batch.size());
    ResidentModel& resident = registry_.model(model);

    const double pickup_us = slo_clock_();
    for (const FleetRequest& r : picked.batch) {
      const double wait_us = (pickup_s - r.arrival_s) * 1e6;
      slo_.record_queue_wait(pickup_us, wait_us);
      FlightRecorder::instance().record(FlightKind::kPickup, r.id,
                                        static_cast<uint64_t>(wait_us));
    }
    if (batch > 1) {
      FlightRecorder::instance().record(FlightKind::kCoalesce,
                                        picked.batch.front().id,
                                        static_cast<uint64_t>(batch),
                                        static_cast<uint64_t>(model));
    }

    ServingPlan serving;
    ExecutionResult result;
    std::vector<std::vector<Tensor>> rows;
    try {
      serving = resident.serving_plan(batch);
      std::vector<const std::map<NodeId, Tensor>*> feed_ptrs;
      feed_ptrs.reserve(batch_pending.size());
      for (const Pending& p : batch_pending) feed_ptrs.push_back(&p.feeds);
      const std::map<NodeId, Tensor> stacked = stack_feeds(feed_ptrs);
      // Request context: the request span, and the timeline events, flight
      // launch/transfer records and spans inside run(), carry this id.
      telemetry::TraceScope trace(picked.batch.front().id);
      telemetry::ScopedSpan span("request", "serve", resident.name());
      result = executor.run(*serving.plan, stacked, options_.with_noise);
      rows = split_outputs(result.outputs, batch_pending.size());
    } catch (const std::exception& e) {
      // The execution failed, not the server: fail every member and go on.
      DUET_LOG_WARN << "a batch of " << batch << " on " << resident.name()
                    << " failed: " << e.what();
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        lifecycle_.on_complete(picked.batch, RequestStatus::kFailed, 0.0,
                               pickup_s, clock_.elapsed());
      }
      for (size_t i = 0; i < picked.batch.size(); ++i) {
        settle(picked.batch[i], batch_pending[i], pickup_s, 0.0,
               response_with(RequestStatus::kFailed));
      }
      continue;
    }

    const double done_s = clock_.elapsed();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      lifecycle_.on_complete(picked.batch, RequestStatus::kOk,
                             result.latency_s, pickup_s, done_s);
    }
    batch_size_metric_.observe(static_cast<double>(batch));
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      for (size_t i = 0; i < picked.batch.size(); ++i) {
        modeled_latency_.add(result.latency_s);
      }
      // Recalibration learns bucket 0's costs from batch-1 timelines.
      if (batch == 1) {
        drift_[static_cast<size_t>(model)].record(result.timeline);
      }
    }
    for (size_t i = 0; i < picked.batch.size(); ++i) {
      FleetResponse response = response_with(RequestStatus::kOk);
      response.outputs = std::move(rows[i]);
      response.modeled_latency_s = result.latency_s;
      response.batch = batch;
      response.bucket = serving.bucket;
      response.plan_version = serving.version;
      settle(picked.batch[i], batch_pending[i], pickup_s, done_s,
             std::move(response));
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
  slo_.record_plan_version(slo_clock_(), version);
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
  const telemetry::SloSnapshot slo = slo_.snapshot(slo_clock_());
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
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.tenants = lifecycle_.tenant_stats();
    s.total = lifecycle_.total();
    const BatchTallies& tallies = lifecycle_.tallies();
    s.batches = tallies.batches;
    s.coalesced_requests = tallies.coalesced;
    s.mean_batch = tallies.mean_batch();
    s.batch_histogram = tallies.histogram;
    s.wall_wait = tallies.queue_wait.summarize();
    s.max_queue_depth = tallies.max_queue_depth;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    s.modeled_latency = modeled_latency_.summarize();
    s.recalibrations = recalibrations_;
    for (const DriftAccumulator& drift : drift_) {
      s.drift_samples += drift.total_samples();
    }
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
  telemetry::SloSnapshot snap = slo_.snapshot(slo_clock_());
  // No swap landed inside the window: report the live plan version rather
  // than 0, so operators always see which plan is serving.
  if (snap.plan_version == 0) snap.plan_version = plan_version();
  return snap;
}

}  // namespace duet::serve
