#pragma once

// FleetServer — the serving runtime. It fronts a ModelRegistry of resident
// models with the WFQ + EDF + coalescing pickup policy of
// serve/fleet_policy.hpp:
//
//   * submit() names a registered model and a tenant class. Feeds are
//     checked against the model's batch-1 input signature on the caller's
//     thread (a bad request throws there; it never reaches a worker).
//     Admission is reject-on-full, counted per tenant — the conservation
//     identity offered = completed + shed + rejected holds for every tenant
//     class separately (tested).
//   * workers pick with the shared FleetQueue policy: the least-served
//     backlogged tenant's most urgent request fixes the model, then up to
//     max_batch compatible requests coalesce into ONE batched execution
//     under the batch's bucket plan. Outputs are split back per request —
//     bit-identical to the requests having run alone (the batching
//     correctness gate). Each worker owns a full device-pair replica, so
//     with noise off outputs are bit-identical however many workers race.
//   * every served request bills its own tenant virtual time, so a
//     coalesced batch spanning tenants charges each fairly.
//
// A single-model server is a configuration, not a second code path: a
// one-model registry, max_batch 1 and one tenant. With one tenant and a
// uniform relative deadline, EDF is FIFO.
//
// Online recalibration closes the compiler-runtime loop: every batch-1
// execution feeds the model's DriftAccumulator, and recalibrate_now()
// re-runs the scheduler against the observed costs, swapping bucket 0's
// placement (apply_placement) when the predicted makespan improves by the
// threshold. In-flight executions keep their plan snapshot; the swap shows
// only in `plan_version` — placement never changes numerics.
//
// Observability: one windowed SloMonitor per server (slo_snapshot()), the
// always-on flight recorder fed with every admission/pickup/outcome event,
// and a fire-once DumpTrigger that writes a post-mortem flight dump on a
// deadline-miss burst or shed-rate incident.
//
// Every per-request side effect — counters, SLO records, drift, trigger
// evaluation and the dump — happens before the request's future resolves,
// so once drain() returns every request's effects are visible.
//
// Lifecycle: construct (optionally start_paused for deterministic tests) →
// submit() from any thread → drain() to stop accepting and wait for every
// accepted request to resolve → shutdown() (idempotent, run by the
// destructor) to join the workers.
//
// The same policy object drives the virtual-time twin simulate_fleet
// (serve/simulator.hpp); CI's tail-latency and fairness gates run there.

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
#include "serve/model_registry.hpp"
#include "serve/recalibration.hpp"
#include "serve/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo_monitor.hpp"

namespace duet::serve {

enum class RequestStatus { kOk, kRejected, kShed };

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
  AdmissionCounters::Snapshot total;
  uint64_t batches = 0;
  uint64_t coalesced_requests = 0;
  double mean_batch = 0.0;
  // Executions by batch size — the coalescing histogram.
  std::map<int64_t, uint64_t> batch_histogram;
  SummaryStats modeled_latency;  // per completed request
  SummaryStats wall_wait;
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
  // The registry must outlive the server (it is the shared substrate many
  // servers / benches may front).
  FleetServer(ModelRegistry& registry, FleetOptions options = {});
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
  // later with kOk or kShed.
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
  struct Pending {
    uint64_t trace_id = 0;  // minted at admission; flows through the flight
                            // recorder, executor timeline and Chrome flows
    int tenant = 0;
    double arrival_s = 0.0;
    double deadline_s = 0.0;  // absolute
    std::map<NodeId, Tensor> feeds;
    std::promise<FleetResponse> promise;
  };

  // Per-tenant telemetry handles, resolved once at construction.
  struct TenantMetrics {
    telemetry::Counter* offered = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* shed = nullptr;
    telemetry::Counter* completed = nullptr;
  };

  void worker_loop();
  // Sheds one picked request: every side effect, then resolve().
  void shed_request(Pending& pending, double pickup_s);
  // Resolves + inflight bookkeeping; must run after every side effect of
  // the request. Caller must not hold queue_mutex_.
  void resolve(Pending& pending, FleetResponse&& response);
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

  // Policy queue + request payloads + lifecycle, one lock: pickups must see
  // a consistent queue/payload pair.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  FleetQueue policy_;
  std::unordered_map<uint64_t, Pending> pending_;
  bool draining_ = false;
  uint64_t inflight_ = 0;
  size_t max_queue_depth_ = 0;
  std::condition_variable inflight_cv_;

  // Per-tenant admission counters (atomics; index = tenant class).
  std::vector<AdmissionCounters> counters_;
  std::vector<TenantMetrics> tenant_metrics_;
  telemetry::SharedHistogram& batch_size_metric_;

  mutable std::mutex stats_mutex_;
  LatencyRecorder modeled_latency_;
  LatencyRecorder wall_wait_;
  uint64_t batches_ = 0;
  uint64_t served_ = 0;
  uint64_t coalesced_ = 0;
  std::map<int64_t, uint64_t> batch_histogram_;
  std::vector<DriftAccumulator> drift_;  // per model, batch-1 executions
  uint64_t recalibrations_ = 0;

  // Serializes recalibration and placement swaps.
  std::mutex recalibrate_mutex_;

  // The monitor and trigger serialize internally.
  telemetry::SloMonitor slo_;
  telemetry::DumpTrigger dump_trigger_;
  std::atomic<uint64_t> slo_breaches_{0};
  std::atomic<uint64_t> flight_dumps_{0};
  std::atomic<uint64_t> swaps_{0};

  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> shut_down_{false};
};

}  // namespace duet::serve
