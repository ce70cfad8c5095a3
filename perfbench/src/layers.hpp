#pragma once

// Per-layer probes of the traced run. Each times calls into one layer's
// public functions from outside, as benchmark spans, after the workload's
// timed phase (so the end-to-end numbers never include them).

#include <string>
#include <vector>

#include "common.hpp"
#include "serve/model_registry.hpp"

namespace perfbench {

// A model the workload serves: its unpartitioned batch-1 graph, the plan the
// workload executes at batch 1, and one request with its reference outputs.
struct ProbeModel {
  std::string name;
  const duet::Graph* graph = nullptr;
  const duet::ExecutionPlan* plan = nullptr;
  const Request* request = nullptr;
};

// tensor.*: replays each plan subgraph by subgraph (CompiledSubgraph::run in
// step order with routed values), attributing each call to the class of its
// largest-flop kernel. runtime.overhead_ms is SimExecutor::run's wall time
// minus that replay, each the fastest of `reps` alternating runs;
// runtime.latency_only_us times run_latency_only.
void probe_execution(const std::vector<ProbeModel>& models, int reps,
                     Outcome& outcome, Metrics& out);

// compiler.*, partition*, profile*, sched*, analysis.*, duet.* and
// runtime.plan_build_s: the DuetEngine constructor, then its stages replayed
// one by one through their public entry points. Clears the compile and
// profile caches so both start cold.
void probe_pipeline(const std::vector<ProbeModel>& models, int64_t max_batch,
                    Outcome& outcome, Metrics& out);

// serve.stack/split/policy/plan_lookup, runtime.exec_us.tiny and
// telemetry.*: serving primitives in isolation on a tiny-model registry.
void probe_serving(duet::serve::ModelRegistry& tiny, uint64_t seed,
                   Outcome& outcome, Metrics& out);

// The serve.* metrics FleetServer responses give, for a workload that serves
// nothing: no queue, no service, no hand-off, batch 1.
void report_without_server(Metrics& out);

// models.build_s / models.build_calls from the traced factory's spans so far.
void report_models_layer(Metrics& out);

// compiler.cache_hit_ratio.cold / .warm.
void report_cache_ratios(const CacheCounts& cold, const CacheCounts& warm,
                         Metrics& out);

}  // namespace perfbench
