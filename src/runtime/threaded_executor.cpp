// Real-concurrency executor: one worker thread per device, each in a
// poll-execute-trigger loop over its own synchronization queue — the thread
// analogue of the paper's two child processes with shared-memory queues
// (§IV-D, Fig. 9). Used to validate that heterogeneous execution computes
// exactly the single-device reference results; latency reported is host
// wall-clock (this machine is not the paper's testbed, so the modeled times
// from SimExecutor are what the benchmarks report).

#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "device/interconnect.hpp"
#include "runtime/arena.hpp"
#include "runtime/executor.hpp"
#include "runtime/queue.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {
namespace {

struct ThreadedMetrics {
  telemetry::SharedHistogram& queue_wait_us =
      telemetry::histogram("executor.threaded.queue_wait_us");
  telemetry::Counter& queue_pops =
      telemetry::counter("executor.threaded.queue_pops");
  telemetry::Counter& launches =
      telemetry::counter("executor.threaded.launches");
  telemetry::Counter& transfer_bytes =
      telemetry::counter("executor.threaded.transfer_bytes");
  telemetry::Counter& transfers =
      telemetry::counter("executor.threaded.transfers");
  telemetry::SharedHistogram& subgraph_us =
      telemetry::histogram("executor.threaded.subgraph_us");

  static ThreadedMetrics& get() {
    static ThreadedMetrics m;
    return m;
  }
};

}  // namespace

ExecutionResult ThreadedExecutor::run(const ExecutionPlan& plan,
                                      const std::map<NodeId, Tensor>& feeds) {
  const size_t n = plan.subgraphs().size();
  ExecutionResult result;

  std::mutex state_mutex;  // guards values, pending, timeline, arena staging
  std::map<NodeId, Tensor> values = feeds;
  // With a MemoryPlan attached, boundary values live in one arena per device.
  // All stage() copies happen under state_mutex; the plan's happens-before
  // interference rule guarantees a slot is only reused after every access of
  // its previous tenant's subgraphs completed (queue triggers synchronize).
  ExecutionArenas arenas(plan.memory_plan());
  std::vector<int> pending(n, 0);
  std::atomic<size_t> remaining{n};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  SyncQueue<int> queues[kNumDeviceKinds];

  WallTimer timer;

  // Seed: subgraphs with no producer dependencies are immediately ready.
  for (const PlannedSubgraph& ps : plan.subgraphs()) {
    pending[static_cast<size_t>(ps.id)] = static_cast<int>(ps.dep_subgraphs.size());
  }
  for (const PlannedSubgraph& ps : plan.subgraphs()) {
    if (ps.dep_subgraphs.empty()) {
      queues[static_cast<int>(ps.device)].push(ps.id);
    }
  }

  const auto worker = [&](DeviceKind kind) {
    Device& dev = devices_.device(kind);
    telemetry::ScopedSpan worker_span(
        telemetry::enabled() ? std::string("worker:") + device_kind_name(kind)
                             : std::string(),
        "exec");
    for (;;) {
      // Time spent blocked on the synchronization queue — the executor's
      // idle/starvation signal (paper §IV-D busy-poll analogue).
      const bool telemetry_on = telemetry::enabled();
      const double wait_start = telemetry_on ? telemetry::now_us() : 0.0;
      std::optional<int> next = queues[static_cast<int>(kind)].pop();
      if (telemetry_on) {
        ThreadedMetrics::get().queue_wait_us.observe(telemetry::now_us() -
                                                     wait_start);
        ThreadedMetrics::get().queue_pops.add(1);
      }
      if (!next.has_value()) return;  // closed and drained
      const PlannedSubgraph& ps = plan.subgraph(*next);
      try {
        std::map<NodeId, Tensor> sub_feeds;
        {
          std::lock_guard<std::mutex> lock(state_mutex);
          for (const PlannedSubgraph::Feed& f : ps.feeds) {
            auto it = values.find(f.parent_producer);
            DUET_CHECK(it != values.end())
                << "missing dependency value for subgraph " << ps.id;
            const Node& p = plan.parent().node(f.parent_producer);
            // A feed whose producer ran on the other device (or a host input
            // consumed on the GPU) crosses the link when staged.
            const int producer =
                plan.partition().producer_subgraph(f.parent_producer);
            const bool crossed =
                producer >= 0 ? plan.subgraph(producer).device != kind
                              : p.is_input() && kind == DeviceKind::kGpu;
            std::optional<telemetry::ScopedSpan> xfer_span;
            if (telemetry_on && crossed) {
              xfer_span.emplace("xfer:" + p.name, "transfer",
                                device_kind_name(kind));
              ThreadedMetrics::get().transfers.add(1);
              ThreadedMetrics::get().transfer_bytes.add(it->second.byte_size());
            }
            // Cross-device feed: "DMA" the payload like the interconnect
            // would — into the consumer device's arena slot when planned,
            // else a deep copy (arena-free fallback).
            if (arenas.enabled()) {
              sub_feeds[f.input_node] =
                  arenas.stage(kind, f.parent_producer, it->second);
            } else {
              sub_feeds[f.input_node] =
                  crossed && p.is_input() ? it->second.clone() : it->second;
            }
          }
        }
        std::optional<telemetry::ScopedSpan> exec_span;
        if (telemetry_on) {
          exec_span.emplace(
              plan.partition().subgraphs[static_cast<size_t>(ps.id)].label,
              "exec", device_kind_name(kind));
        }
        const double t0 = timer.elapsed();
        Device::RunResult rr = dev.execute(ps.compiled, sub_feeds, false);
        const double t1 = timer.elapsed();
        exec_span.reset();
        if (telemetry_on) {
          ThreadedMetrics::get().launches.add(1);
          ThreadedMetrics::get().subgraph_us.observe((t1 - t0) * 1e6);
        }
        {
          std::lock_guard<std::mutex> lock(state_mutex);
          for (size_t o = 0; o < ps.produces.size(); ++o) {
            values[ps.produces[o]] =
                arenas.stage(kind, ps.produces[o], rr.outputs[o]);
          }
          result.timeline.add({TimelineEvent::Kind::kExec, ps.id, kind,
                               plan.partition().subgraphs[static_cast<size_t>(ps.id)].label,
                               t0, t1});
          // Trigger consumers whose dependencies are now all satisfied.
          for (int consumer : plan.consumers()[static_cast<size_t>(ps.id)]) {
            if (--pending[static_cast<size_t>(consumer)] == 0) {
              queues[static_cast<int>(plan.subgraph(consumer).device)].push(consumer);
            }
          }
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        remaining.store(0);
        for (auto& q : queues) q.close();
        return;
      }
      if (remaining.fetch_sub(1) == 1) {
        for (auto& q : queues) q.close();
        return;
      }
    }
  };

  std::thread cpu_worker(worker, DeviceKind::kCpu);
  std::thread gpu_worker(worker, DeviceKind::kGpu);
  cpu_worker.join();
  gpu_worker.join();

  if (first_error) std::rethrow_exception(first_error);

  result.latency_s = timer.elapsed();
  result.outputs.reserve(plan.parent().outputs().size());
  for (NodeId out : plan.parent().outputs()) {
    auto it = values.find(out);
    DUET_CHECK(it != values.end()) << "output " << out << " was not produced";
    result.outputs.push_back(it->second);
  }
  return result;
}

}  // namespace duet
