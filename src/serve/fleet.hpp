#pragma once

// FleetServer — the serving runtime, the threaded driver of the request
// lifecycle (serve/lifecycle.hpp: admission, WFQ + EDF + coalescing pick,
// completion, resolution, drain). Lifecycle calls run inside the
// queue-mutex sections; stacking, execution, splitting, drift, SLO, flight
// and metrics calls and promises run outside that lock.
//
//   * submit() names a registered model and a tenant class. Feeds are
//     checked against the model's batch-1 input signature on the caller's
//     thread (a bad request throws there; it never reaches a worker).
//     Admission is reject-on-full; per tenant, offered = completed + shed +
//     rejected + failed (tested).
//   * a pick's head fixes the model; up to max_batch compatible requests
//     coalesce into ONE execution under the batch's bucket plan, and the
//     outputs split back per request, bit-identical to running alone. Each
//     worker owns a device-pair replica, so with noise off outputs do not
//     depend on which worker served them. Every member bills its own
//     tenant's virtual time.
//   * an execution that throws (an out-of-range embedding index passes the
//     shape check) fails its batch: every member resolves kFailed and the
//     worker keeps serving.
//
// A single-model server is a configuration, not a second code path: a
// one-model registry, max_batch 1 and one tenant (EDF under a uniform
// relative deadline is FIFO).
//
// Online recalibration: every batch-1 execution feeds the model's
// DriftAccumulator, and recalibrate_now() re-runs the scheduler against the
// observed costs, swapping bucket 0's placement when the predicted makespan
// improves by the threshold. In-flight executions keep their plan
// snapshot; placement never changes numerics.
//
// Observability: one windowed SloMonitor (slo_snapshot()), the flight
// recorder fed with every admission/pickup/outcome event, and a fire-once
// DumpTrigger that writes a flight dump on a deadline-miss burst or a
// shed-rate incident. Every per-request side effect happens before the
// request resolves, so once drain() returns every effect is visible (the
// model checker's mc-drain-quiescence).
//
// Use: construct (optionally start_paused for deterministic tests) →
// submit() from any thread → drain() → shutdown() (idempotent, run by the
// destructor) joins the workers.

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "serve/fleet_policy.hpp"
#include "serve/lifecycle.hpp"
#include "serve/model_registry.hpp"
#include "serve/recalibration.hpp"
#include "serve/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo_monitor.hpp"

namespace duet::serve {

// Incident dumps. The flight recorder itself is process-global and always
// on; a fired trigger dumps its rings into `dump_dir` once. "" disables
// trigger-driven dumps (explicit FlightRecorder::dump still works).
struct ServeObservability {
  telemetry::DumpTriggerConfig trigger;
  std::string dump_dir;
};

struct FleetOptions {
  int workers = 2;
  size_t queue_capacity = 128;
  // Tenant classes; empty = one default tenant (weight 1, no deadline).
  std::vector<TenantClass> tenants;
  // Coalescing cap per pickup; clipped to the registry's max_batch.
  int64_t max_batch = 8;
  // Noise on modeled execution times (numerics are unaffected either way).
  bool with_noise = false;
  // Workers start blocked before their first pick until resume() — lets
  // tests fill the queue (deterministic rejects) or let deadlines expire
  // (deterministic sheds) without racing the workers.
  bool start_paused = false;
  ServeObservability observability;
};

struct FleetResponse {
  RequestStatus status = RequestStatus::kRejected;
  std::vector<Tensor> outputs;     // this request's rows only; kOk only
  double modeled_latency_s = 0.0;  // makespan of the (batched) execution
  int64_t batch = 0;               // coalesced size of that execution
  size_t bucket = 0;               // bucket whose plan served it
  uint64_t plan_version = 0;       // model plan generation that served it
  double wall_wait_s = 0.0;        // arrival -> worker pickup
  double wall_latency_s = 0.0;     // arrival -> response resolved
};

struct FleetServerStats {
  std::vector<FleetTenantStats> tenants;
  AdmissionCounters total;
  uint64_t batches = 0;
  uint64_t coalesced_requests = 0;
  double mean_batch = 0.0;
  // Executions by batch size — the coalescing histogram.
  std::map<int64_t, uint64_t> batch_histogram;
  SummaryStats modeled_latency;  // per completed request
  SummaryStats wall_wait;        // arrival -> pickup, per completed request
  size_t max_queue_depth = 0;
  uint64_t slo_breaches = 0;    // sheds + late completions
  uint64_t flight_dumps = 0;    // trigger-driven post-mortem dumps written
  uint64_t recalibrations = 0;  // recalibrate_now() calls
  uint64_t swaps = 0;           // placements published by this server
  uint64_t plan_version = 0;    // newest plan generation across models
  uint64_t drift_samples = 0;   // observed subgraph executions, all models
};

class FleetServer {
 public:
  // Monotonic microseconds.
  using Clock = double (*)();

  // The registry must outlive the server (it is the shared substrate many
  // servers / benches may front).
  FleetServer(ModelRegistry& registry, FleetOptions options = {});
  // Same, with the clock the SLO window reads instead of telemetry::now_us:
  // a test drives it to land traffic in, or move it out of, the window
  // independently of how long the traffic really takes.
  FleetServer(ModelRegistry& registry, FleetOptions options, Clock slo_clock);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  const FleetOptions& options() const { return options_; }
  ModelRegistry& registry() { return registry_; }

  // Thread-safe. `model` is a registry index, `tenant` a class index.
  // `deadline_s` < 0 applies the tenant class default; 0 disables. Throws
  // (duet::Error, nothing counted) when `feeds` does not match the model's
  // input signature. Otherwise the future resolves with kRejected
  // immediately when the queue is full or the server is draining, and
  // later with kOk, kShed or kFailed.
  std::future<FleetResponse> submit(int model, int tenant,
                                    std::map<NodeId, Tensor> feeds,
                                    double deadline_s = -1.0);

  // Releases start_paused workers. No-op otherwise.
  void resume();
  // Stops accepting, then blocks until every accepted request has resolved;
  // workers exit once the backlog is empty. Stats remain readable after.
  void drain();
  // drain() + join workers. Idempotent; the destructor calls it.
  void shutdown();

  // Publishes `placement` for `model`'s bucket 0 (ResidentModel::
  // apply_placement). Serialized with recalibration; safe under traffic.
  void apply_placement(int model, const Placement& placement);
  // Re-runs the scheduler for `model`'s bucket 0 against the drift its
  // batch-1 executions recorded, and applies the proposal when the
  // predicted improvement clears the threshold. A model with no recorded
  // drift is a no-op (nothing new to learn).
  RecalibrationResult recalibrate_now(int model,
                                      const RecalibrationOptions& options = {});

  FleetServerStats stats() const;
  // Windowed SLO view (last 10 s): latency quantiles, queue wait/depth,
  // shed/reject rates, breaches, plan version.
  telemetry::SloSnapshot slo_snapshot() const;

 private:
  // What the lifecycle does not carry: the payload and the caller's promise.
  struct Pending {
    std::map<NodeId, Tensor> feeds;
    std::promise<FleetResponse> promise;
  };

  // Per-tenant telemetry handles, resolved once at construction.
  struct TenantMetrics {
    telemetry::Counter* offered = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* shed = nullptr;
    telemetry::Counter* completed = nullptr;
    telemetry::Counter* failed = nullptr;
  };

  void worker_loop();
  // Every side effect of the request's outcome (status kShed, kOk or
  // kFailed; `done_s` matters for kOk), then its promise, then
  // Lifecycle::on_resolve — so drain() sees every effect. Caller must not
  // hold queue_mutex_.
  void settle(const FleetRequest& request, Pending& pending, double pickup_s,
              double done_s, FleetResponse&& response);
  Pending take_pending(uint64_t id);
  // Records one outcome: counts an SLO breach (a shed or a late
  // completion) and evaluates the dump triggers.
  void on_outcome(bool shed, bool breach);
  // Writes a trigger-driven flight dump once (no-op without a dump_dir).
  void maybe_flight_dump(const std::string& reason);
  // apply_placement without the serialization (caller holds it).
  void swap_placement(int model, const Placement& placement);
  uint64_t plan_version() const;  // newest across resident models

  ModelRegistry& registry_;
  FleetOptions options_;
  WallTimer clock_;
  std::vector<std::thread> workers_;

  // Pause gate (start_paused).
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  bool paused_ = false;

  // Lifecycle + request payloads, one lock: pickups must see a consistent
  // queue/payload pair.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  Lifecycle lifecycle_;
  std::unordered_map<uint64_t, Pending> pending_;
  std::condition_variable inflight_cv_;

  std::vector<TenantMetrics> tenant_metrics_;
  telemetry::SharedHistogram& batch_size_metric_;

  mutable std::mutex stats_mutex_;
  LatencyRecorder modeled_latency_;
  std::vector<DriftAccumulator> drift_;  // per model, batch-1 executions
  uint64_t recalibrations_ = 0;

  // Serializes recalibration and placement swaps.
  std::mutex recalibrate_mutex_;

  // The monitor and trigger serialize internally. slo_clock_ is set once
  // at construction and stamps every SloMonitor record and snapshot.
  Clock slo_clock_;
  telemetry::SloMonitor slo_;
  telemetry::DumpTrigger dump_trigger_;
  std::atomic<uint64_t> slo_breaches_{0};
  std::atomic<uint64_t> flight_dumps_{0};
  std::atomic<uint64_t> swaps_{0};

  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> shut_down_{false};
};

}  // namespace duet::serve
