#include "analysis/plan_validator.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "graph/traversal.hpp"

namespace duet {
namespace {

bool is_compute(const Node& n) { return !n.is_input() && !n.is_constant(); }

bool valid_device(DeviceKind kind) {
  const int v = static_cast<int>(kind);
  return v >= 0 && v < kNumDeviceKinds;
}

// parent node id -> owning subgraph id, -1 when unowned. Computed locally so
// the validators work on corrupted partitions without touching the lazily
// built (and throwing) Partition::producer_subgraph index.
std::vector<int> owner_map(const Graph& parent, const Partition& partition,
                           VerifyResult* result) {
  std::vector<int> owner(parent.num_nodes(), -1);
  for (const Subgraph& sub : partition.subgraphs) {
    for (NodeId id : sub.parent_nodes) {
      if (id < 0 || static_cast<size_t>(id) >= parent.num_nodes()) {
        result->error_sub("partition-coverage", sub.id,
                          "subgraph lists nonexistent parent node %" +
                              std::to_string(id));
        continue;
      }
      if (owner[static_cast<size_t>(id)] >= 0) {
        result->error_sub("partition-overlap", sub.id,
                          "parent node %" + std::to_string(id) +
                              " already owned by subgraph #" +
                              std::to_string(owner[static_cast<size_t>(id)]));
        continue;
      }
      owner[static_cast<size_t>(id)] = sub.id;
    }
  }
  return owner;
}

}  // namespace

VerifyResult verify_partition(const Graph& parent, const Partition& partition) {
  VerifyResult result;
  const std::vector<int> owner = owner_map(parent, partition, &result);

  // Coverage: every live compute node belongs to a subgraph (dead code is
  // deliberately outside the partition).
  const std::vector<bool> live = live_nodes(parent);
  for (const Node& n : parent.nodes()) {
    if (!is_compute(n) || !live[static_cast<size_t>(n.id)]) continue;
    if (owner[static_cast<size_t>(n.id)] < 0) {
      result.error("partition-coverage", n.id,
                   "live compute node \"" + n.name + "\" not owned by any subgraph");
    }
  }

  // Phase bookkeeping: each subgraph in exactly one phase, phase back-refs
  // consistent.
  std::vector<int> phase_uses(partition.subgraphs.size(), 0);
  for (const Phase& phase : partition.phases) {
    for (int sid : phase.subgraphs) {
      if (sid < 0 || static_cast<size_t>(sid) >= partition.subgraphs.size()) {
        result.error_sub("phase-membership", sid,
                         "phase " + std::to_string(phase.index) +
                             " lists nonexistent subgraph");
        continue;
      }
      phase_uses[static_cast<size_t>(sid)] += 1;
      if (partition.subgraphs[static_cast<size_t>(sid)].phase != phase.index) {
        result.error_sub("phase-membership", sid,
                         "subgraph records phase " +
                             std::to_string(
                                 partition.subgraphs[static_cast<size_t>(sid)].phase) +
                             " but phase " + std::to_string(phase.index) +
                             " claims it");
      }
    }
  }
  for (size_t i = 0; i < phase_uses.size(); ++i) {
    if (phase_uses[i] != 1) {
      result.error_sub("phase-membership", static_cast<int>(i),
                       "subgraph appears in " + std::to_string(phase_uses[i]) +
                           " phases");
    }
  }

  // Boundary inputs must name valid parent producers outside the subgraph,
  // and compute producers must come from strictly earlier phases.
  for (const Subgraph& sub : partition.subgraphs) {
    for (const Subgraph::BoundaryInput& b : sub.boundary_inputs) {
      if (b.parent_producer < 0 ||
          static_cast<size_t>(b.parent_producer) >= parent.num_nodes()) {
        result.error_sub("boundary-producer", sub.id,
                         "boundary input names nonexistent parent node %" +
                             std::to_string(b.parent_producer));
        continue;
      }
      const int producer = owner[static_cast<size_t>(b.parent_producer)];
      if (producer == sub.id) {
        result.error_sub("boundary-producer", sub.id,
                         "boundary input %" + std::to_string(b.parent_producer) +
                             " is produced inside the subgraph itself");
        continue;
      }
      const Node& p = parent.node(b.parent_producer);
      if (!is_compute(p)) continue;  // parent graph input: always available
      if (producer < 0) {
        result.error_sub("boundary-producer", sub.id,
                         "boundary input %" + std::to_string(b.parent_producer) +
                             " is a compute node owned by no subgraph");
      } else if (partition.subgraphs[static_cast<size_t>(producer)].phase >=
                 sub.phase) {
        result.error_sub("phase-order", sub.id,
                         "depends on subgraph #" + std::to_string(producer) +
                             " of the same or a later phase");
      }
    }
  }
  result.set_artifact(parent.name());
  return result;
}

VerifyResult verify_placement(const Placement& placement, const Partition& partition) {
  VerifyResult result;
  if (placement.size() != partition.subgraphs.size()) {
    result.error_sub("placement-size", -1,
                     "placement covers " + std::to_string(placement.size()) +
                         " subgraphs, partition has " +
                         std::to_string(partition.subgraphs.size()));
    return result;  // per-subgraph checks would read out of range
  }
  for (size_t i = 0; i < placement.size(); ++i) {
    const DeviceKind kind = placement.of(static_cast<int>(i));
    if (!valid_device(kind)) {
      result.error_sub("placement-device", static_cast<int>(i),
                       "placed on invalid device kind " +
                           std::to_string(static_cast<int>(kind)));
    }
  }
  return result;
}

VerifyResult verify_plan(const PlanView& view) {
  VerifyResult result;
  const size_t n = view.partition.subgraphs.size();

  if (view.subgraphs.size() != n) {
    result.error_sub("plan-size", -1,
                     "plan holds " + std::to_string(view.subgraphs.size()) +
                         " subgraphs, partition has " + std::to_string(n));
  }
  for (size_t i = 0; i < view.subgraphs.size(); ++i) {
    if (view.subgraphs[i].id != static_cast<int>(i)) {
      result.error_sub("plan-size", static_cast<int>(i),
                       "planned subgraph at index " + std::to_string(i) +
                           " carries id " + std::to_string(view.subgraphs[i].id));
    }
  }

  // Ownership findings belong to verify_partition; reporting them here too
  // would double every partition corruption in the suite.
  VerifyResult ownership;
  const std::vector<int> owner = owner_map(view.parent, view.partition, &ownership);
  const auto device_of = [&](int sid) -> DeviceKind {
    return view.subgraphs[static_cast<size_t>(sid)].device;
  };

  // The compiled device of each subgraph must agree with the placement the
  // plan claims to implement.
  if (view.placement.size() == view.subgraphs.size()) {
    for (const PlannedSubgraph& ps : view.subgraphs) {
      if (ps.id < 0 || static_cast<size_t>(ps.id) >= view.placement.size()) continue;
      if (ps.device != view.placement.of(ps.id)) {
        result.error_sub("placement-consistency", ps.id,
                         "compiled for " +
                             std::string(device_kind_name(ps.device)) +
                             " but placed on " +
                             device_kind_name(view.placement.of(ps.id)));
      }
    }
  }

  // Required cross-device edges, derived from the feeds; and per-subgraph
  // feed/dep consistency.
  std::map<std::tuple<int, int, NodeId>, int> required;  // edge -> seen count
  for (const PlannedSubgraph& ps : view.subgraphs) {
    const std::set<int> deps(ps.dep_subgraphs.begin(), ps.dep_subgraphs.end());
    std::set<int> used_deps;
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      if (f.parent_producer < 0 ||
          static_cast<size_t>(f.parent_producer) >= view.parent.num_nodes()) {
        result.error_sub("feed-def", ps.id,
                         "feed names nonexistent parent node %" +
                             std::to_string(f.parent_producer));
        continue;
      }
      const Node& p = view.parent.node(f.parent_producer);
      if (p.is_input()) continue;  // host-resident model input
      const int src = owner[static_cast<size_t>(f.parent_producer)];
      if (src < 0 || static_cast<size_t>(src) >= view.subgraphs.size()) {
        result.error_sub("feed-def", ps.id,
                         "feed %" + std::to_string(f.parent_producer) +
                             " has no producing subgraph");
        continue;
      }
      if (!deps.count(src)) {
        result.error_sub("use-before-def", ps.id,
                         "consumes %" + std::to_string(f.parent_producer) +
                             " from subgraph #" + std::to_string(src) +
                             " without declaring the dependency");
      }
      used_deps.insert(src);
      if (device_of(src) != ps.device) {
        required[{src, ps.id, f.parent_producer}] = 0;
      }
    }
    for (int dep : deps) {
      if (!used_deps.count(dep)) {
        result.error_sub("dep-extraneous", ps.id,
                         "declares dependency on subgraph #" + std::to_string(dep) +
                             " but consumes none of its values");
      }
    }
  }

  // Transfer schedule: exactly one step per required edge, nothing else.
  for (const TransferStep& t : view.transfers) {
    const auto key = std::make_tuple(t.src_subgraph, t.dst_subgraph, t.parent_node);
    auto it = required.find(key);
    if (it == required.end()) {
      const bool ids_ok =
          t.src_subgraph >= 0 &&
          static_cast<size_t>(t.src_subgraph) < view.subgraphs.size() &&
          t.dst_subgraph >= 0 &&
          static_cast<size_t>(t.dst_subgraph) < view.subgraphs.size();
      if (ids_ok && device_of(t.src_subgraph) == device_of(t.dst_subgraph)) {
        result.error_sub("same-device-transfer", t.dst_subgraph,
                         "transfer of %" + std::to_string(t.parent_node) +
                             " from subgraph #" + std::to_string(t.src_subgraph) +
                             " stays on one device");
      } else {
        result.error_sub("spurious-transfer", t.dst_subgraph,
                         "transfer of %" + std::to_string(t.parent_node) +
                             " from subgraph #" + std::to_string(t.src_subgraph) +
                             " matches no cross-device edge");
      }
      continue;
    }
    if (++it->second > 1) {
      result.error_sub("duplicate-transfer", t.dst_subgraph,
                       "cross-device edge %" + std::to_string(t.parent_node) +
                           " (#" + std::to_string(t.src_subgraph) + " -> #" +
                           std::to_string(t.dst_subgraph) +
                           ") transferred more than once");
    }
  }
  for (const auto& [edge, count] : required) {
    if (count == 0) {
      result.error_sub("missing-transfer", std::get<1>(edge),
                       "cross-device edge %" + std::to_string(std::get<2>(edge)) +
                           " (#" + std::to_string(std::get<0>(edge)) + " -> #" +
                           std::to_string(std::get<1>(edge)) +
                           ") has no transfer step");
    }
  }

  // Step order: a permutation of the subgraph ids in which every declared
  // dependency precedes its consumer.
  {
    std::vector<int> position(view.subgraphs.size(), -1);
    bool permutation_ok = view.step_order.size() == view.subgraphs.size();
    for (size_t i = 0; i < view.step_order.size(); ++i) {
      const int sid = view.step_order[i];
      if (sid < 0 || static_cast<size_t>(sid) >= view.subgraphs.size() ||
          position[static_cast<size_t>(sid)] >= 0) {
        permutation_ok = false;
        break;
      }
      position[static_cast<size_t>(sid)] = static_cast<int>(i);
    }
    if (!permutation_ok) {
      result.error_sub("step-order", -1,
                       "step order is not a permutation of the subgraph ids");
    } else {
      for (const PlannedSubgraph& ps : view.subgraphs) {
        for (int dep : ps.dep_subgraphs) {
          if (dep < 0 || static_cast<size_t>(dep) >= view.subgraphs.size()) continue;
          if (position[static_cast<size_t>(dep)] >
              position[static_cast<size_t>(ps.id)]) {
            result.error_sub("step-order", ps.id,
                             "scheduled before its dependency subgraph #" +
                                 std::to_string(dep));
          }
        }
      }
    }
  }

  // consumers() must be the exact inverse of dep_subgraphs.
  if (view.consumers.size() == view.subgraphs.size()) {
    std::set<std::pair<int, int>> dep_edges;  // (producer, consumer)
    for (const PlannedSubgraph& ps : view.subgraphs) {
      for (int dep : ps.dep_subgraphs) dep_edges.insert({dep, ps.id});
    }
    std::set<std::pair<int, int>> consumer_edges;
    for (size_t i = 0; i < view.consumers.size(); ++i) {
      for (int c : view.consumers[i]) consumer_edges.insert({static_cast<int>(i), c});
    }
    if (dep_edges != consumer_edges) {
      result.error_sub("consumers-inverse", -1,
                       "consumer lists are not the inverse of the dependency lists");
    }
  } else {
    result.error_sub("consumers-inverse", -1,
                     "consumer table covers " + std::to_string(view.consumers.size()) +
                         " subgraphs, plan has " +
                         std::to_string(view.subgraphs.size()));
  }

  // Every parent output must be materialized by exactly one subgraph.
  std::map<NodeId, int> produced;
  for (const PlannedSubgraph& ps : view.subgraphs) {
    for (NodeId out : ps.produces) produced[out] += 1;
  }
  for (NodeId out : view.parent.outputs()) {
    if (out >= 0 && static_cast<size_t>(out) < view.parent.num_nodes() &&
        view.parent.node(out).is_input()) {
      continue;  // an output that is directly a model input needs no producer
    }
    const auto it = produced.find(out);
    if (it == produced.end()) {
      result.error("outputs-produced", out, "parent output produced by no subgraph");
    } else if (it->second > 1) {
      result.error("outputs-produced", out,
                   "parent output produced by " + std::to_string(it->second) +
                       " subgraphs");
    }
  }
  result.set_artifact(view.parent.name());
  return result;
}

VerifyResult verify_plan(const ExecutionPlan& plan) {
  VerifyResult result = verify_placement(plan.placement(), plan.partition());
  result.merge(verify_plan(PlanView::of(plan)));
  return result;
}

}  // namespace duet
