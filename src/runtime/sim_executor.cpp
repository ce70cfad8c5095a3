#include "common/error.hpp"
#include "device/calibration.hpp"
#include "device/interconnect.hpp"
#include "runtime/arena.hpp"
#include "runtime/executor.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace duet {
namespace {

// Cached registry handles: with telemetry disabled each record costs one
// relaxed atomic load, keeping the 5000-run latency path unperturbed.
struct SimMetrics {
  telemetry::Counter& launches = telemetry::counter("executor.sim.launches");
  telemetry::Counter& transfer_bytes =
      telemetry::counter("executor.sim.transfer_bytes");
  telemetry::Counter& transfers = telemetry::counter("executor.sim.transfers");
  telemetry::SharedHistogram& subgraph_us =
      telemetry::histogram("executor.sim.subgraph_us");

  static SimMetrics& get() {
    static SimMetrics m;
    return m;
  }
};

}  // namespace

template <bool kNumeric>
ExecutionResult SimExecutor::run_impl(const ExecutionPlan& plan,
                                      const std::map<NodeId, Tensor>& feeds,
                                      bool with_noise, bool record_timeline) {
  ExecutionResult result;
  SimMetrics& metrics = SimMetrics::get();

  // Serving request context, if any. Timeline events are tagged with it so
  // drift reports can join per-request; flight launch/transfer events are
  // recorded only inside a request (scheduler evaluation loops calling
  // run_latency_only must stay unperturbed, and engine-driven runs are not
  // incidents worth ring space).
  const uint64_t trace_id =
      record_timeline ? telemetry::current_trace_id() : 0;
  const auto add_event = [&](TimelineEvent event) {
    event.trace_id = trace_id;
    result.timeline.add(std::move(event));
  };

  // Values keyed by parent node id. Feeds seed the store. When the plan
  // carries a MemoryPlan, boundary values are staged into per-device arena
  // slots instead of staying in their own heap buffers.
  std::map<NodeId, Tensor> values;
  ExecutionArenas arenas(kNumeric ? plan.memory_plan() : nullptr);
  if constexpr (kNumeric) values = feeds;

  // Launch hook, called in pick order: numeric execution (or just the
  // modeled time) plus the §IV-D dispatch overhead.
  const auto launch = [&](int id, DeviceKind device, double /*ready*/,
                          double start) {
    const PlannedSubgraph& ps = plan.subgraph(id);
    Device& dev = devices_.device(device);
    double exec_time = 0.0;
    if constexpr (kNumeric) {
      std::map<NodeId, Tensor> sub_feeds;
      for (const PlannedSubgraph::Feed& f : ps.feeds) {
        auto it = values.find(f.parent_producer);
        DUET_CHECK(it != values.end())
            << "missing value for parent node " << f.parent_producer;
        sub_feeds[f.input_node] = arenas.stage(device, f.parent_producer, it->second);
      }
      Device::RunResult rr = dev.execute(ps.compiled, sub_feeds, with_noise);
      exec_time = rr.modeled_time_s;
      for (size_t o = 0; o < ps.produces.size(); ++o) {
        values[ps.produces[o]] = arenas.stage(device, ps.produces[o], rr.outputs[o]);
      }
    } else {
      exec_time = dev.modeled_time(ps.compiled, with_noise);
    }
    // Queue pop + worker wake + dependency triggering (paper §IV-D).
    exec_time += executor_dispatch_overhead();
    metrics.launches.add(1);
    metrics.subgraph_us.observe(exec_time * 1e6);
    if (trace_id != 0) {
      telemetry::FlightRecorder::instance().record(
          telemetry::FlightKind::kLaunch, trace_id, static_cast<uint64_t>(id),
          static_cast<uint64_t>(exec_time * 1e9), static_cast<uint8_t>(device));
    }
    if (record_timeline) {
      add_event({TimelineEvent::Kind::kExec, id, device,
                 plan.partition().subgraphs[static_cast<size_t>(id)].label, start,
                 start + exec_time});
    }
    return exec_time;
  };

  // Every link crossing — h2d input, cross-device edge, d2h output — is
  // charged here: link time, metrics, timeline span, flight event.
  const auto charge = [&](TransferKind kind, int id, DeviceKind to,
                          uint64_t bytes, double at) {
    static constexpr const char* kLabel[] = {"h2d-input", "xfer", "d2h-output"};
    const double dt = devices_.link->transfer_time(bytes, with_noise);
    metrics.transfer_bytes.add(bytes);
    metrics.transfers.add(1);
    if (record_timeline) {
      add_event({TimelineEvent::Kind::kTransfer, id, to,
                 kLabel[static_cast<int>(kind)], at, at + dt});
    }
    if (trace_id != 0) {
      telemetry::FlightRecorder::instance().record(
          telemetry::FlightKind::kTransfer, trace_id, static_cast<uint64_t>(id),
          bytes, static_cast<uint8_t>(to));
    }
    return dt;
  };

  result.latency_s = list_schedule(
      plan.flow(), lanes_, [&](int id) { return plan.subgraph(id).device; },
      launch, charge);

  if constexpr (kNumeric) {
    result.outputs.reserve(plan.parent().outputs().size());
    for (NodeId out : plan.parent().outputs()) {
      auto it = values.find(out);
      DUET_CHECK(it != values.end()) << "output " << out << " was not produced";
      result.outputs.push_back(it->second);
    }
  }
  return result;
}

ExecutionResult SimExecutor::run(const ExecutionPlan& plan,
                                 const std::map<NodeId, Tensor>& feeds,
                                 bool with_noise) {
  // Wall-clock span for the whole numeric run; the per-subgraph virtual-time
  // spans land in the result's Timeline.
  telemetry::ScopedSpan span("sim-exec", "exec", plan.parent().name());
  return run_impl<true>(plan, feeds, with_noise, /*record_timeline=*/true);
}

double SimExecutor::run_latency_only(const ExecutionPlan& plan, bool with_noise) {
  static const std::map<NodeId, Tensor> kNoFeeds;
  return run_impl<false>(plan, kNoFeeds, with_noise, /*record_timeline=*/false)
      .latency_s;
}

}  // namespace duet
