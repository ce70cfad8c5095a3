#pragma once

// End-to-end latency evaluation of a placement: a deterministic discrete-
// event simulation of the two-device executor. Devices run their assigned
// subgraphs one at a time (paper footnote 2); a subgraph becomes ready when
// all producer subgraphs have finished plus, for cross-device edges and for
// host inputs consumed on the GPU, the PCIe transfer delay. This is the
// `measure_latency` the correction step of Algorithm 1 iterates against —
// schedulers call it thousands of times per search, so evaluate() runs the
// shared heap-based list scheduler (sched/list_scheduler.hpp) over profile
// means behind a placement-keyed memo, and evaluate_reference() keeps the
// original O(n^2) scan as the executable specification the core is tested
// against: both produce bit-identical makespans and event sequences.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "profile/profiler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/placement.hpp"

namespace duet {

struct ScheduleEvent {
  int subgraph = -1;
  DeviceKind device = DeviceKind::kCpu;
  double ready = 0.0;   // all dependencies (incl. transfers) satisfied
  double start = 0.0;   // device began executing
  double finish = 0.0;  // device completed
};

class LatencyEvaluator {
 public:
  LatencyEvaluator(const Partition& partition, const Graph& parent,
                   const std::vector<SubgraphProfile>& profiles,
                   const TransferParams& link,
                   const LaneConfig& lanes = LaneConfig::single());

  // Makespan of the placement using mean profiled subgraph times. If
  // `events` is non-null the per-subgraph schedule is written there (sorted
  // by start time) — this is also how Fig. 4-style timelines are produced.
  // Revisited placements (annealing, correction sweeps) are served from the
  // memo when no events are requested.
  double evaluate(const Placement& placement,
                  std::vector<ScheduleEvent>* events = nullptr) const;

  // The pre-optimization implementation: per-step linear scan over all
  // subgraphs, no memo. Kept public so the equivalence tests and the
  // micro-benchmark can pit the two against each other.
  double evaluate_reference(const Placement& placement,
                            std::vector<ScheduleEvent>* events = nullptr) const;

  // Number of evaluate() calls so far (scheduling-cost ablation). Memo hits
  // count: a served evaluation is still an evaluation.
  int64_t evaluations() const { return evaluations_; }
  // How many of those were answered from the placement memo.
  int64_t memo_hits() const { return memo_hits_; }
  void set_memo_enabled(bool on) { memo_enabled_ = on; }

  const Partition& partition() const { return partition_; }
  const std::vector<SubgraphProfile>& profiles() const { return profiles_; }

  // Bytes flowing from subgraph `from` to subgraph `to` (0 if no edge).
  uint64_t edge_bytes(int from, int to) const;
  // Bytes of parent-graph inputs consumed by subgraph `to` (host-resident;
  // they must cross the link when `to` runs on the GPU).
  uint64_t host_input_bytes(int to) const;

 private:
  const Partition& partition_;
  std::vector<SubgraphProfile> profiles_;
  TransferParams link_;
  LaneConfig lanes_;
  double dispatch_overhead_;

  TaskGraph flow_;  // the list scheduler's view, precomputed once
  // Per-consumer producer edges, the reference scan's view of flow_.
  struct Dep {
    int producer = -1;
    uint64_t bytes = 0;
  };
  std::vector<std::vector<Dep>> deps_;

  // Placement-keyed makespan memo: a bitset key when every subgraph index
  // fits one uint64 bit, a byte-string key otherwise.
  mutable std::unordered_map<uint64_t, double> memo_small_;
  mutable std::unordered_map<std::string, double> memo_large_;
  bool memo_enabled_ = true;

  mutable int64_t evaluations_ = 0;
  mutable int64_t memo_hits_ = 0;
};

}  // namespace duet
