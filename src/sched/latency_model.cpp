#include "sched/latency_model.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "device/calibration.hpp"
#include "telemetry/metrics.hpp"

namespace duet {

LatencyEvaluator::LatencyEvaluator(const Partition& partition, const Graph& parent,
                                   const std::vector<SubgraphProfile>& profiles,
                                   const TransferParams& link,
                                   const LaneConfig& lanes)
    : partition_(partition),
      profiles_(profiles),
      link_(link),
      lanes_(lanes),
      dispatch_overhead_(executor_dispatch_overhead()) {
  DUET_CHECK_GE(lanes_.of(DeviceKind::kCpu), 1);
  DUET_CHECK_GE(lanes_.of(DeviceKind::kGpu), 1);
  DUET_CHECK_EQ(profiles_.size(), partition_.subgraphs.size());
  flow_ = subgraph_flow(partition_, parent);
  deps_.resize(flow_.size());
  for (size_t p = 0; p < flow_.size(); ++p) {
    for (int e = flow_.consumer_begin[p]; e < flow_.consumer_begin[p + 1]; ++e) {
      deps_[static_cast<size_t>(flow_.consumers[static_cast<size_t>(e)])].push_back(
          {static_cast<int>(p), flow_.edge_bytes[static_cast<size_t>(e)]});
    }
  }
}

uint64_t LatencyEvaluator::edge_bytes(int from, int to) const {
  for (const Dep& d : deps_[static_cast<size_t>(to)]) {
    if (d.producer == from) return d.bytes;
  }
  return 0;
}

uint64_t LatencyEvaluator::host_input_bytes(int to) const {
  return flow_.input_bytes[static_cast<size_t>(to)];
}

double LatencyEvaluator::evaluate(const Placement& placement,
                                  std::vector<ScheduleEvent>* events) const {
  ++evaluations_;
  // Global candidate-evaluation count across every scheduler instance (the
  // per-instance evaluations_ feeds the scheduling-cost ablation).
  static telemetry::Counter& evals = telemetry::counter("sched.evaluations");
  evals.add(1);
  const size_t n = partition_.subgraphs.size();
  DUET_CHECK_EQ(placement.size(), n);

  // Memo lookup: a placement fully determines the (deterministic) schedule,
  // so revisited candidates — annealing flips, correction sweeps — cost one
  // hash probe. Event requests always run the simulation.
  const bool memoize = memo_enabled_ && events == nullptr;
  uint64_t small_key = 0;
  std::string large_key;
  if (memoize) {
    static telemetry::Counter& memo_hits = telemetry::counter("sched.eval.memo_hits");
    if (n <= 64) {
      for (size_t i = 0; i < n; ++i) {
        if (placement.of(static_cast<int>(i)) == DeviceKind::kGpu) {
          small_key |= 1ull << i;
        }
      }
      auto it = memo_small_.find(small_key);
      if (it != memo_small_.end()) {
        ++memo_hits_;
        memo_hits.add(1);
        return it->second;
      }
    } else {
      // Past 64 subgraphs the placement no longer fits the bitset key and the
      // memo degrades to string keys. Count every such lookup so the cliff is
      // visible in telemetry (the memo-bitset-fallback lint rule points here).
      static telemetry::Counter& memo_large =
          telemetry::counter("sched.eval.memo_large_key");
      memo_large.add(1);
      large_key.resize(n);
      for (size_t i = 0; i < n; ++i) {
        large_key[i] =
            placement.of(static_cast<int>(i)) == DeviceKind::kGpu ? '1' : '0';
      }
      auto it = memo_large_.find(large_key);
      if (it != memo_large_.end()) {
        ++memo_hits_;
        memo_hits.add(1);
        return it->second;
      }
    }
  }

  std::vector<ScheduleEvent> schedule;
  if (events != nullptr) schedule.reserve(n);
  const double makespan = list_schedule(
      flow_, lanes_, [&](int i) { return placement.of(i); },
      [&](int i, DeviceKind dev, double ready, double start) {
        const double exec =
            profiles_[static_cast<size_t>(i)].time_on(dev) + dispatch_overhead_;
        if (events != nullptr) schedule.push_back({i, dev, ready, start, start + exec});
        return exec;
      },
      [&](TransferKind, int, DeviceKind, uint64_t bytes, double) {
        return transfer_time_seconds(bytes, link_);
      });
  if (events != nullptr) {
    std::sort(schedule.begin(), schedule.end(),
              [](const ScheduleEvent& a, const ScheduleEvent& b) {
                return a.start < b.start;
              });
    *events = std::move(schedule);
  }
  if (memoize) {
    if (n <= 64) {
      memo_small_.emplace(small_key, makespan);
    } else {
      memo_large_.emplace(std::move(large_key), makespan);
    }
  }
  return makespan;
}

double LatencyEvaluator::evaluate_reference(const Placement& placement,
                                            std::vector<ScheduleEvent>* events) const {
  ++evaluations_;
  static telemetry::Counter& evals = telemetry::counter("sched.evaluations");
  evals.add(1);
  const size_t n = partition_.subgraphs.size();
  DUET_CHECK_EQ(placement.size(), n);

  std::vector<double> ready(n, 0.0);
  std::vector<double> finish(n, 0.0);
  std::vector<int> pending(n, 0);
  std::vector<bool> done(n, false);
  std::vector<bool> dep_ready(n, false);

  for (size_t i = 0; i < n; ++i) {
    pending[i] = static_cast<int>(deps_[i].size());
    const DeviceKind dev = placement.of(static_cast<int>(i));
    // Host inputs must reach the GPU over the link before it can start.
    if (dev == DeviceKind::kGpu && flow_.input_bytes[i] > 0) {
      ready[i] = transfer_time_seconds(flow_.input_bytes[i], link_);
    }
    dep_ready[i] = pending[i] == 0;
  }

  // One free-time entry per execution lane (footnote-2 streams).
  std::vector<std::vector<double>> lane_free(kNumDeviceKinds);
  for (int d = 0; d < kNumDeviceKinds; ++d) {
    lane_free[d].assign(static_cast<size_t>(lanes_.lanes[d]), 0.0);
  }
  const auto earliest_lane = [&](DeviceKind dev) {
    size_t best_lane = 0;
    const auto& lanes = lane_free[static_cast<int>(dev)];
    for (size_t l = 1; l < lanes.size(); ++l) {
      if (lanes[l] < lanes[best_lane]) best_lane = l;
    }
    return best_lane;
  };

  std::vector<ScheduleEvent> schedule;
  schedule.reserve(n);

  size_t completed = 0;
  while (completed < n) {
    // Pick the runnable subgraph with the earliest feasible start; break
    // ties by phase then id (the executor's FIFO order).
    int best = -1;
    double best_start = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (done[i] || !dep_ready[i]) continue;
      const DeviceKind dev = placement.of(static_cast<int>(i));
      const double start =
          std::max(ready[i], lane_free[static_cast<int>(dev)][earliest_lane(dev)]);
      const bool better =
          start < best_start ||
          (start == best_start && best >= 0 &&
           (partition_.subgraphs[i].phase < partition_.subgraphs[static_cast<size_t>(best)].phase ||
            (partition_.subgraphs[i].phase ==
                 partition_.subgraphs[static_cast<size_t>(best)].phase &&
             static_cast<int>(i) < best)));
      if (better || best < 0) {
        best = static_cast<int>(i);
        best_start = start;
      }
    }
    DUET_CHECK_GE(best, 0) << "deadlock: no runnable subgraph (cyclic partition?)";

    const size_t i = static_cast<size_t>(best);
    const DeviceKind dev = placement.of(best);
    const double exec = profiles_[i].time_on(dev) + dispatch_overhead_;
    const double end = best_start + exec;
    finish[i] = end;
    done[i] = true;
    lane_free[static_cast<int>(dev)][earliest_lane(dev)] = end;
    ++completed;
    schedule.push_back({best, dev, ready[i], best_start, end});

    // Release consumers.
    for (size_t j = 0; j < n; ++j) {
      if (done[j] || dep_ready[j]) continue;
      for (const Dep& d : deps_[j]) {
        if (d.producer != best) continue;
        double avail = end;
        if (placement.of(static_cast<int>(j)) != dev) {
          avail += transfer_time_seconds(d.bytes, link_);
        }
        ready[j] = std::max(ready[j], avail);
        if (--pending[j] == 0) dep_ready[j] = true;
      }
    }
  }

  double makespan = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double end = finish[i];
    // User-facing results produced on the GPU come back to the host.
    if (flow_.output_bytes[i] > 0 &&
        placement.of(static_cast<int>(i)) == DeviceKind::kGpu) {
      end += transfer_time_seconds(flow_.output_bytes[i], link_);
    }
    makespan = std::max(makespan, end);
  }

  if (events != nullptr) {
    std::sort(schedule.begin(), schedule.end(),
              [](const ScheduleEvent& a, const ScheduleEvent& b) {
                return a.start < b.start;
              });
    *events = std::move(schedule);
  }
  return makespan;
}

}  // namespace duet
