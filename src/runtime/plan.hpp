#pragma once

// ExecutionPlan: the fully resolved artifact the executors run — partition +
// placement + per-subgraph compiled code for the assigned device + the feed
// routing between subgraph boundaries. Building the plan resolves the
// placeholder ids of each (optimized) compiled graph back to parent node
// ids, so executors move tensors purely by parent-node key.
//
// The plan also encodes its communication statically: one TransferStep per
// cross-device boundary edge, a dependency-respecting step order, and the
// subgraph dataflow with every transfer size the simulated executors charge
// (flow()). Those executors still pay transfers dynamically (when a
// dependent fires), but the static schedule is what the plan validator
// (analysis/plan_validator.hpp) checks — exactly one transfer per
// cross-device edge, none for same-device edges, no use-before-def.

#include <map>
#include <optional>
#include <vector>

#include "device/device.hpp"
#include "partition/partitioner.hpp"
#include "runtime/memory_plan.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/placement.hpp"

namespace duet {

struct PlannedSubgraph {
  int id = -1;
  DeviceKind device = DeviceKind::kCpu;
  CompiledSubgraph compiled;

  struct Feed {
    NodeId parent_producer = kInvalidNode;  // node in the parent graph
    NodeId input_node = kInvalidNode;       // kInput in compiled.graph()
  };
  std::vector<Feed> feeds;

  // Parent node ids this subgraph materializes, aligned 1:1 with
  // compiled.graph().outputs().
  std::vector<NodeId> produces;

  // Producer subgraph ids this one waits for (deduplicated).
  std::vector<int> dep_subgraphs;
};

// One boundary value crossing the device link: produced by subgraph `src` on
// one device, consumed by subgraph `dst` on the other.
struct TransferStep {
  int src_subgraph = -1;
  int dst_subgraph = -1;
  NodeId parent_node = kInvalidNode;  // the value being moved
  uint64_t bytes = 0;
};

class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  const Graph& parent() const { return parent_; }
  const Partition& partition() const { return partition_; }
  const Placement& placement() const { return placement_; }
  const std::vector<PlannedSubgraph>& subgraphs() const { return subgraphs_; }
  const PlannedSubgraph& subgraph(int id) const;

  // Consumers of each subgraph (inverse of dep_subgraphs).
  const std::vector<std::vector<int>>& consumers() const { return consumers_; }

  // Static transfer schedule: exactly one entry per cross-device boundary
  // edge (deduplicated by (src, dst, parent node)).
  const std::vector<TransferStep>& transfers() const { return transfers_; }

  // A dependency-respecting launch order of subgraph ids (Kahn topological
  // order, smallest id first among ready subgraphs).
  const std::vector<int>& step_order() const { return step_order_; }

  // The subgraph dataflow the list scheduler runs: tie ranks, consumer
  // edges with their bytes, host-input and user-output bytes per subgraph.
  const TaskGraph& flow() const { return flow_; }

  // Per-device memory footprint of the plan: resident weights plus the
  // boundary tensors the executor holds between subgraphs. Deployment
  // engineers size device memory with this (weights are replicated onto the
  // device that runs each subgraph; model load time is offline, as in the
  // paper).
  struct MemoryReport {
    uint64_t weight_bytes[kNumDeviceKinds] = {0, 0};
    uint64_t boundary_bytes[kNumDeviceKinds] = {0, 0};
    uint64_t total(DeviceKind kind) const {
      return weight_bytes[static_cast<int>(kind)] +
             boundary_bytes[static_cast<int>(kind)];
    }
  };
  MemoryReport memory_report() const;

  // Liveness-packed arena layout for the boundary values (one arena per
  // device; analysis/memory_planner.hpp). build() attaches it; executors run
  // boundary tensors out of the arenas whenever it is present. Null only for
  // a default-constructed plan or after clear_memory_plan().
  const MemoryPlan* memory_plan() const {
    return memory_plan_.has_value() ? &*memory_plan_ : nullptr;
  }
  // Test hooks: corruption tests re-plan from corrupted components, and the
  // executor tests exercise the arena-free fallback path.
  void set_memory_plan(MemoryPlan plan) { memory_plan_ = std::move(plan); }
  void clear_memory_plan() { memory_plan_.reset(); }

  // Builds a plan by compiling every subgraph for its placed device.
  static ExecutionPlan build(const Graph& parent, Partition partition,
                             Placement placement, const DevicePair& devices,
                             const CompileOptions& options);

 private:
  Graph parent_;
  Partition partition_;
  Placement placement_;
  std::vector<PlannedSubgraph> subgraphs_;
  std::vector<std::vector<int>> consumers_;
  std::vector<TransferStep> transfers_;
  std::vector<int> step_order_;
  TaskGraph flow_;
  std::optional<MemoryPlan> memory_plan_;
};

}  // namespace duet
