#include "runtime/plan.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "analysis/memory_planner.hpp"
#include "common/error.hpp"
#include "graph/shape_inference.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {

ExecutionPlan::MemoryReport ExecutionPlan::memory_report() const {
  MemoryReport report;
  for (const PlannedSubgraph& ps : subgraphs_) {
    const int d = static_cast<int>(ps.device);
    report.weight_bytes[d] += ps.compiled.graph().param_bytes();
    // Boundary tensors this subgraph materializes live on its device until
    // consumed (or copied across the link).
    for (NodeId out : ps.produces) {
      report.boundary_bytes[d] += node_output_bytes(parent_.node(out));
    }
    // Its placeholder inputs are staged on the same device before launch.
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      report.boundary_bytes[d] += node_output_bytes(parent_.node(f.parent_producer));
    }
  }
  return report;
}

const PlannedSubgraph& ExecutionPlan::subgraph(int id) const {
  DUET_CHECK(id >= 0 && static_cast<size_t>(id) < subgraphs_.size());
  return subgraphs_[static_cast<size_t>(id)];
}

ExecutionPlan ExecutionPlan::build(
    const Graph& parent, Partition partition, Placement placement,
    const DevicePair& devices, const CompileOptions& options,
    std::span<const GraphFingerprint> subgraph_fingerprints) {
  DUET_CHECK_EQ(placement.size(), partition.subgraphs.size());
  DUET_CHECK(subgraph_fingerprints.empty() ||
             subgraph_fingerprints.size() == partition.subgraphs.size())
      << "one fingerprint per subgraph";
  telemetry::ScopedSpan span("plan-build", "plan", parent.name());
  ExecutionPlan plan;
  plan.parent_ = parent;
  plan.partition_ = std::move(partition);
  plan.placement_ = std::move(placement);

  for (const Subgraph& sub : plan.partition_.subgraphs) {
    PlannedSubgraph ps;
    ps.id = sub.id;
    ps.device = plan.placement_.of(sub.id);
    const Device& dev = devices.device(ps.device);
    // compile_for_device is content-addressed: when the profiler already
    // compiled this subgraph for this device, this is a CompileCache hit and
    // the plan reuses that artifact instead of recompiling.
    ps.compiled = compile_for_device(
        sub.graph, ps.device, options, dev.params(),
        subgraph_fingerprints.empty()
            ? nullptr
            : &subgraph_fingerprints[static_cast<size_t>(sub.id)]);

    // All optimization passes copy kInput nodes in id order, so the compiled
    // graph's inputs align positionally with the subgraph's boundary inputs.
    const std::vector<NodeId> compiled_inputs = ps.compiled.graph().input_ids();
    DUET_CHECK_EQ(compiled_inputs.size(), sub.boundary_inputs.size())
        << "compilation changed the input signature of " << sub.label;
    for (size_t i = 0; i < compiled_inputs.size(); ++i) {
      const Node& src = sub.graph.node(sub.boundary_inputs[i].placeholder);
      const Node& dst = ps.compiled.graph().node(compiled_inputs[i]);
      DUET_CHECK(src.name == dst.name)
          << "input order changed during compilation: " << src.name << " vs "
          << dst.name;
      ps.feeds.push_back({sub.boundary_inputs[i].parent_producer, compiled_inputs[i]});
    }

    DUET_CHECK_EQ(ps.compiled.graph().outputs().size(), sub.boundary_outputs.size());
    ps.produces = sub.boundary_outputs;

    std::set<int> dep_set;
    for (const Subgraph::BoundaryInput& b : sub.boundary_inputs) {
      const Node& p = parent.node(b.parent_producer);
      if (p.is_input()) continue;
      const int producer = plan.partition_.producer_subgraph(b.parent_producer);
      DUET_CHECK_GE(producer, 0);
      dep_set.insert(producer);
    }
    ps.dep_subgraphs.assign(dep_set.begin(), dep_set.end());
    plan.subgraphs_.push_back(std::move(ps));
  }

  plan.flow_ = subgraph_flow(plan.partition_, parent);
  plan.consumers_.resize(plan.subgraphs_.size());
  for (const PlannedSubgraph& ps : plan.subgraphs_) {
    for (int dep : ps.dep_subgraphs) {
      plan.consumers_[static_cast<size_t>(dep)].push_back(ps.id);
    }
  }

  // Static transfer schedule: one step per cross-device boundary edge.
  std::set<std::tuple<int, int, NodeId>> seen_edges;
  for (const PlannedSubgraph& ps : plan.subgraphs_) {
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      const Node& p = parent.node(f.parent_producer);
      if (p.is_input()) continue;  // host-resident; charged as h2d at launch
      const int src = plan.partition_.producer_subgraph(f.parent_producer);
      if (plan.placement_.of(src) == ps.device) continue;
      if (!seen_edges.insert({src, ps.id, f.parent_producer}).second) continue;
      plan.transfers_.push_back({src, ps.id, f.parent_producer,
                                 node_output_bytes(p)});
    }
  }

  // Launch order: Kahn over the subgraph dependency DAG, smallest id first.
  const size_t n = plan.subgraphs_.size();
  std::vector<int> pending(n, 0);
  for (size_t i = 0; i < n; ++i) {
    pending[i] = static_cast<int>(plan.subgraphs_[i].dep_subgraphs.size());
  }
  std::set<int> ready;
  for (size_t i = 0; i < n; ++i) {
    if (pending[i] == 0) ready.insert(static_cast<int>(i));
  }
  while (!ready.empty()) {
    const int next = *ready.begin();
    ready.erase(ready.begin());
    plan.step_order_.push_back(next);
    for (int consumer : plan.consumers_[static_cast<size_t>(next)]) {
      if (--pending[static_cast<size_t>(consumer)] == 0) ready.insert(consumer);
    }
  }
  DUET_CHECK_EQ(plan.step_order_.size(), n)
      << "subgraph dependency cycle while ordering plan steps";

  // Liveness-driven arena layout: every boundary value gets a per-device
  // offset, so the executors allocate one arena per device instead of
  // per-tensor buffers.
  plan.memory_plan_ = plan_memory(plan);
  if (telemetry::enabled()) {
    telemetry::counter("plan.builds").add(1);
    telemetry::counter("plan.transfers").add(plan.transfers_.size());
    telemetry::gauge("plan.arena_cpu_peak_bytes")
        .record_max(
            static_cast<double>(plan.memory_plan_->arena_bytes(DeviceKind::kCpu)));
    telemetry::gauge("plan.arena_gpu_peak_bytes")
        .record_max(
            static_cast<double>(plan.memory_plan_->arena_bytes(DeviceKind::kGpu)));
  }
  return plan;
}

}  // namespace duet
