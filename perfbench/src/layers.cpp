#include "layers.hpp"

#include <cstdio>
#include <map>
#include <memory>

#include "analysis/lint/lint.hpp"
#include "analysis/plan_validator.hpp"
#include "analysis/race_checker.hpp"
#include "analysis/symbolic/crossover.hpp"
#include "analysis/symbolic/sym_shape_inference.hpp"
#include "compiler/pass.hpp"
#include "device/device.hpp"
#include "device/interconnect.hpp"
#include "duet/engine.hpp"
#include "runtime/executor.hpp"
#include "sched/scheduler.hpp"
#include "serve/admission.hpp"
#include "serve/batching.hpp"
#include "serve/fleet_policy.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

using namespace duet;

namespace {

const char* const kKernelClasses[] = {"conv", "rnn", "dense", "attention",
                                      "other"};

// Class of the subgraph's largest-flop kernel.
std::string kernel_class(const CompiledSubgraph& compiled) {
  const CompiledKernel* top = nullptr;
  for (const CompiledKernel& k : compiled.kernels()) {
    if (top == nullptr || k.flops > top->flops) top = &k;
  }
  if (top == nullptr) return "other";
  switch (compiled.graph().node(top->node).op) {
    case OpType::kConv2d:
      return "conv";
    case OpType::kLSTM:
    case OpType::kGRU:
      return "rnn";
    case OpType::kDense:
    case OpType::kMatMul:
    case OpType::kBatchMatMul:
      return "dense";
    case OpType::kMultiHeadAttention:
      return "attention";
    default:
      return "other";
  }
}

double plan_flops(const ExecutionPlan& plan) {
  double flops = 0.0;
  for (const PlannedSubgraph& ps : plan.subgraphs()) {
    for (const CompiledKernel& k : ps.compiled.kernels()) flops += k.flops;
  }
  return flops;
}

// The executor's numeric work without the executor: every subgraph in step
// order on the values routed to it. Adds each call's wall time to its class.
std::vector<Tensor> replay(const ExecutionPlan& plan,
                           const std::map<NodeId, Tensor>& feeds,
                           std::map<std::string, double>& class_s) {
  std::map<NodeId, Tensor> values = feeds;
  for (int id : plan.step_order()) {
    const PlannedSubgraph& ps = plan.subgraph(id);
    std::map<NodeId, Tensor> sub_feeds;
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      sub_feeds[f.input_node] = values.at(f.parent_producer);
    }
    const std::string cls = kernel_class(ps.compiled);
    std::vector<Tensor> outputs;
    {
      Span span("tensor." + cls);
      const double t0 = now_s();
      outputs = ps.compiled.run(sub_feeds);
      class_s[cls] += now_s() - t0;
    }
    for (size_t o = 0; o < ps.produces.size(); ++o) {
      values[ps.produces[o]] = outputs[o];
    }
  }
  std::vector<Tensor> outputs;
  for (NodeId out : plan.parent().outputs()) outputs.push_back(values.at(out));
  return outputs;
}

// Mean seconds per call of `fn`, over at least `min_calls` calls and
// `min_s` seconds, inside one span. The clock is read every 64 calls so it
// does not dominate nanosecond-scale calls.
template <typename F>
double per_call_s(const std::string& span_name, int min_calls, double min_s,
                  F&& fn) {
  Span span(span_name);
  const double t0 = now_s();
  int calls = 0;
  double t = t0;
  do {
    for (int i = 0; i < 64; ++i) fn();
    calls += 64;
    t = now_s();
  } while (calls < min_calls || t - t0 < min_s);
  return (t - t0) / calls;
}

void check(Outcome& outcome, const VerifyResult& result,
           const std::string& what) {
  if (!result.ok()) outcome.problem(what + " failed verification");
}

}  // namespace

void probe_execution(const std::vector<ProbeModel>& models, int reps,
                     Outcome& outcome, Metrics& out) {
  std::map<std::string, double> class_total_s;
  double replay_total_s = 0.0;
  double sim_total_s = 0.0;
  double flops = 0.0;
  double latency_only_us = 0.0;
  for (const ProbeModel& m : models) {
    DevicePair devices = make_default_device_pair(42 ^ 0x5EEDFACEull);
    SimExecutor executor(devices);
    // The fastest of `reps` runs of each side, alternating which goes first:
    // the least-disturbed measurement on a shared host.
    double sim_s = 0.0;
    double replay_s = 0.0;
    std::map<std::string, double> class_s;
    const auto run_sim = [&] {
      ExecutionResult result;
      Span span("runtime.sim_exec");
      const double t0 = now_s();
      result = executor.run(*m.plan, m.request->feeds);
      const double s = now_s() - t0;
      if (sim_s == 0.0 || s < sim_s) sim_s = s;
      if (!outputs_match(result.outputs, m.request->expected)) {
        outcome.problem(m.name + ": SimExecutor::run output mismatch");
      }
    };
    const auto run_replay = [&] {
      std::map<std::string, double> rep_s;
      if (!outputs_match(replay(*m.plan, m.request->feeds, rep_s),
                         m.request->expected)) {
        outcome.problem(m.name + ": subgraph replay output mismatch");
      }
      double s = 0.0;
      for (const auto& [cls, t] : rep_s) s += t;
      if (replay_s == 0.0 || s < replay_s) {
        replay_s = s;
        class_s = rep_s;
      }
    };
    for (int r = 0; r < reps; ++r) {
      if (r % 2 == 0) {
        run_sim();
        run_replay();
      } else {
        run_replay();
        run_sim();
      }
    }
    for (const auto& [cls, s] : class_s) class_total_s[cls] += s;
    replay_total_s += replay_s;
    sim_total_s += sim_s;
    flops += plan_flops(*m.plan);
    std::printf("  %-12s SimExecutor::run %.3f ms = tensor %.3f ms + overhead "
                "%.3f ms [",
                m.name.c_str(), 1e3 * sim_s, 1e3 * replay_s,
                1e3 * (sim_s - replay_s));
    for (const char* cls : kKernelClasses) {
      std::printf(" %s %.3f", cls, 1e3 * class_s[cls]);
    }
    std::printf(" ]\n");

    latency_only_us += 1e6 * per_call_s("runtime.latency_only", 64, 0.05, [&] {
      executor.run_latency_only(*m.plan);
    });
  }
  for (const char* cls : kKernelClasses) {
    out.set(std::string("tensor.") + cls + "_ms", 1e3 * class_total_s[cls],
            "ms");
  }
  out.set("tensor.gflop", flops / 1e9, "GFLOP");
  out.set("tensor.gflops",
          replay_total_s > 0.0 ? flops / 1e9 / replay_total_s : 0.0,
          "GFLOP/s");
  out.set("runtime.overhead_ms", 1e3 * (sim_total_s - replay_total_s), "ms");
  out.set("runtime.latency_only_us",
          models.empty() ? 0.0 : latency_only_us / models.size(), "us");
}

void probe_pipeline(const std::vector<ProbeModel>& models, int64_t max_batch,
                    Outcome& outcome, Metrics& out) {
  DuetOptions options;
  options.profile.compile = options.compile;
  double nodes_in = 0.0;
  double nodes_out = 0.0;
  double subgraphs = 0.0;
  double evaluations = 0.0;
  CacheCounts warm_profile;
  const PassManager pipeline = PassManager::standard(options.compile);
  std::map<std::string, double> seconds;  // by span name, summed over models
  const auto timed = [&seconds](const std::string& name, auto&& fn) {
    Span span(name);
    const double t0 = now_s();
    fn();
    seconds[name] += now_s() - t0;
  };

  for (const ProbeModel& m : models) {
    const Graph& graph = *m.graph;
    clear_caches();
    std::unique_ptr<DuetEngine> engine;
    timed("duet.engine",
          [&] { engine = std::make_unique<DuetEngine>(graph, options); });
    engine.reset();
    clear_caches();

    // The standard pipeline's passes, each run alone.
    Graph optimized = graph;
    nodes_in += static_cast<double>(graph.num_nodes());
    for (const NamedPass& pass : pipeline.passes()) {
      timed("compiler.pass." + pass.name,
            [&] { optimized = pass.run(optimized); });
    }
    nodes_out += static_cast<double>(optimized.num_nodes());

    // The engine's stages, in its order and cache state.
    Partition partition;
    timed("partition",
          [&] { partition = partition_phased(graph, options.partition); });
    subgraphs += static_cast<double>(partition.subgraphs.size());
    DevicePair devices = make_default_device_pair(options.seed);
    Profiler profiler(devices);
    std::vector<SubgraphProfile> profiles;
    timed("profile", [&] {
      profiles = profiler.profile_partition(partition, graph, options.profile);
    });
    const CacheCounts before_warm = CacheCounts::now();
    timed("profile.warm", [&] {
      profiler.profile_partition(partition, graph, options.profile);
    });
    const CacheCounts warm = CacheCounts::now().since(before_warm);
    warm_profile.profile_hits += warm.profile_hits;
    warm_profile.profile_misses += warm.profile_misses;
    devices = make_default_device_pair(options.seed ^ 0x5EEDFACEull);
    LatencyEvaluator evaluator(partition, graph, profiles,
                               devices.link->params());
    Rng rng(options.seed + 1000);
    SchedulingContext ctx;
    ctx.partition = &partition;
    ctx.profiles = &profiles;
    ctx.evaluator = &evaluator;
    ctx.rng = &rng;
    ScheduleResult schedule;
    timed("sched", [&] {
      schedule = make_scheduler(options.scheduler)->schedule(ctx);
    });
    evaluations += static_cast<double>(schedule.evaluations);
    ExecutionPlan plan;
    timed("runtime.plan_build", [&] {
      plan = ExecutionPlan::build(graph, partition, schedule.placement,
                                  devices, options.compile);
    });
    timed("analysis.checked", [&] {
      check(outcome, verify_partition(graph, partition), m.name + " partition");
      check(outcome, verify_placement(schedule.placement, partition),
            m.name + " placement");
      check(outcome, verify_plan(plan), m.name + " plan");
      check(outcome, verify_races(plan), m.name + " race check");
      check(outcome, lint::LintSuite::standard().run(plan), m.name + " lint");
    });

    // The registry's bucket seeding, on the optimized graph it analyses.
    const Partition optimized_partition =
        partition_phased(optimized, options.partition);
    timed("analysis.crossover", [&] {
      const symbolic::SymbolicShapes shapes =
          symbolic::infer_symbolic(optimized, symbolic::SymbolicOptions{});
      symbolic::CrossoverOptions crossover;
      crossover.lo = 1;
      crossover.hi = max_batch;
      symbolic::analyze_crossover(optimized, optimized_partition, shapes,
                                  crossover);
    });
  }

  for (const NamedPass& pass : pipeline.passes()) {
    const std::string name = "compiler.pass." + pass.name;
    out.set(name + "_s", seconds[name], "s");
  }
  out.set("compiler.nodes_in", nodes_in, "count");
  out.set("compiler.nodes_out", nodes_out, "count");
  out.set("partition_s", seconds["partition"], "s");
  out.set("partition.subgraphs", subgraphs, "count");
  out.set("profile_s", seconds["profile"], "s");
  out.set("profile.warm_s", seconds["profile.warm"], "s");
  out.set("profile.cache_hit_ratio", warm_profile.profile_hit_ratio(), "ratio");
  out.set("sched_s", seconds["sched"], "s");
  out.set("sched.evaluations", evaluations, "count");
  out.set("sched.eval_us",
          evaluations > 0 ? 1e6 * seconds["sched"] / evaluations : 0.0, "us");
  out.set("runtime.plan_build_s", seconds["runtime.plan_build"], "s");
  out.set("analysis.checked_s", seconds["analysis.checked"], "s");
  out.set("analysis.crossover_s", seconds["analysis.crossover"], "s");
  out.set("duet.engine_s", seconds["duet.engine"], "s");
  // What the constructor spends outside the stages replayed above: the
  // single-device baseline estimates, device set-up and bookkeeping.
  out.set("duet.engine_residual_s",
          seconds["duet.engine"] - seconds["partition"] - seconds["profile"] -
              seconds["sched"] - seconds["runtime.plan_build"] -
              seconds["analysis.checked"],
          "s");
}

void probe_serving(serve::ModelRegistry& tiny, uint64_t seed, Outcome& outcome,
                   Metrics& out) {
  const auto batch = static_cast<size_t>(kFleetMaxBatch);
  DevicePair devices = make_default_device_pair(42 ^ 0x5EEDFACEull);
  SimExecutor executor(devices);
  double stack_us = 0.0;
  double split_us = 0.0;
  double exec_us = 0.0;
  double lookup_us = 0.0;
  for (size_t i = 0; i < tiny.size(); ++i) {
    serve::ResidentModel& model = tiny.model(static_cast<int>(i));
    const std::vector<Request> requests =
        make_requests(model.engine().model(), seed + 7919 * i, batch);
    std::vector<const std::map<NodeId, Tensor>*> feeds;
    for (const Request& r : requests) feeds.push_back(&r.feeds);

    std::map<NodeId, Tensor> stacked;
    stack_us += 1e6 * per_call_s("serve.stack", 256, 0.02,
                                 [&] { stacked = serve::stack_feeds(feeds); });
    const std::shared_ptr<const ExecutionPlan> one = model.plan_for_batch(1);
    const std::shared_ptr<const ExecutionPlan> full =
        model.plan_for_batch(kFleetMaxBatch);
    ExecutionResult batched;
    exec_us += 1e6 * per_call_s("runtime.exec.tiny", 64, 0.02, [&] {
      executor.run(*one, requests.front().feeds);
    });
    exec_us += 1e6 * per_call_s("runtime.exec.tiny", 64, 0.02, [&] {
      batched = executor.run(*full, stacked);
    });
    std::vector<std::vector<Tensor>> rows;
    split_us += 1e6 * per_call_s("serve.split", 256, 0.02, [&] {
      rows = serve::split_outputs(batched.outputs, batch);
    });
    for (size_t r = 0; r < batch; ++r) {
      if (!outputs_match(rows[r], requests[r].expected)) {
        outcome.problem(model.name() + ": coalesced row " + std::to_string(r) +
                        " differs from its reference");
      }
    }
    int64_t b = 0;
    lookup_us += 1e6 * per_call_s("serve.plan_lookup", 256, 0.02, [&] {
      model.plan_for_batch(b % kFleetMaxBatch + 1);
      ++b;
    });
  }
  const double n = static_cast<double>(tiny.size());
  out.set("serve.stack_us", stack_us / n, "us");
  out.set("serve.split_us", split_us / n, "us");
  out.set("runtime.exec_us.tiny", exec_us / (2 * n), "us");
  out.set("serve.plan_lookup_us", lookup_us / n, "us");

  // WFQ + EDF push and coalescing pick, per request.
  serve::FleetQueue queue(serve::default_tenant_classes(3), 128);
  uint64_t id = 0;
  const double round_s = per_call_s("serve.policy", 256, 0.02, [&] {
    for (size_t r = 0; r < batch; ++r) {
      serve::FleetRequest request;
      request.id = ++id;
      request.tenant = static_cast<int>(id % 3);
      request.model = static_cast<int>(id % tiny.size());
      request.arrival_s = static_cast<double>(id) * 1e-6;
      queue.push(request);
    }
    while (!queue.empty()) {
      queue.pick(static_cast<double>(id) * 1e-6, kFleetMaxBatch);
    }
  });
  out.set("serve.policy_us", 1e6 * round_s / static_cast<double>(batch), "us");

  // The per-request telemetry calls FleetServer makes on completion.
  const std::vector<serve::TenantClass> tenants =
      serve::default_tenant_classes(3);
  size_t t = 0;
  out.set("telemetry.counter_ns",
          1e9 * per_call_s("telemetry.counter", 4096, 0.02, [&] {
            telemetry::counter("fleet.completed." + tenants[t++ % 3].name)
                .add(1);
          }),
          "ns");
  uint64_t trace_id = 0;
  out.set("telemetry.flight_record_ns",
          1e9 * per_call_s("telemetry.flight_record", 4096, 0.02, [&] {
            telemetry::FlightRecorder::instance().record(
                telemetry::FlightKind::kComplete, ++trace_id, 1, 100);
          }),
          "ns");
}

void report_without_server(Metrics& out) {
  out.set("serve.queue_wait_p50_ms", 0.0, "ms");
  out.set("serve.queue_wait_p99_ms", 0.0, "ms");
  out.set("serve.service_p50_ms", 0.0, "ms");
  out.set("serve.handoff_us", 0.0, "us");
  out.set("serve.mean_batch", 1.0, "count");
  out.set("serve.coalesced_ratio", 0.0, "ratio");
}

void report_models_layer(Metrics& out) {
  const Tracer::Layer build = Tracer::instance().layer("models.build");
  out.set("models.build_s", build.self_s, "s");
  out.set("models.build_calls", static_cast<double>(build.count), "count");
}

void report_cache_ratios(const CacheCounts& cold, const CacheCounts& warm,
                         Metrics& out) {
  out.set("compiler.cache_hit_ratio.cold", cold.compile_hit_ratio(), "ratio");
  out.set("compiler.cache_hit_ratio.warm", warm.compile_hit_ratio(), "ratio");
}

}  // namespace perfbench
