// The lint passes of the standard check table (lint.cpp). The table runs
// the structural validators before them, so ids those reject are skipped
// here rather than re-reported: one corruption yields one diagnostic from
// the checker that owns the rule.

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint/lint.hpp"
#include "analysis/lint/rules.hpp"
#include "analysis/liveness.hpp"
#include "analysis/symbolic/sym_cost.hpp"
#include "analysis/symbolic/sym_shape_inference.hpp"
#include "device/device.hpp"
#include "graph/shape_inference.hpp"
#include "telemetry/metrics.hpp"

namespace duet::lint {
namespace {

bool valid_node(NodeId id, const Graph& graph) {
  return id >= 0 && static_cast<size_t>(id) < graph.num_nodes();
}

// id -> index into view.subgraphs (identity for a valid plan; corrupted views
// may break the alignment, so passes always go through this map).
std::map<int, size_t> subgraph_index(const PlanView& view) {
  std::map<int, size_t> index;
  for (size_t i = 0; i < view.subgraphs.size(); ++i) {
    index.emplace(view.subgraphs[i].id, i);
  }
  return index;
}

}  // namespace

// --- boundary-type -----------------------------------------------------------
// The plan builder resolves compiled placeholder ids back to parent node ids;
// this pass re-proves that the types survived extraction + optimization: every
// placeholder a feed routes into, and every compiled output a `produces`
// entry maps out of, must carry the parent node's shape and dtype. A mismatch
// means the executor will hand a kernel a differently-shaped buffer than the
// code was compiled for.
namespace {

void check_boundary(VerifyResult& result, const Node& parent_node,
                    const Node& compiled_node, int sid, const char* role) {
  if (compiled_node.out_shape == parent_node.out_shape &&
      compiled_node.out_dtype == parent_node.out_dtype) {
    return;
  }
  result.add(finding(
      "boundary-type", parent_node.id, sid,
      std::string(role) + " for %" + std::to_string(parent_node.id) + " is " +
          compiled_node.out_shape.to_string() + " " +
          dtype_name(compiled_node.out_dtype) + " but the parent declares " +
          parent_node.out_shape.to_string() + " " +
          dtype_name(parent_node.out_dtype)));
}

}  // namespace

VerifyResult boundary_type(const LintInput& input) {
  VerifyResult result;
  const Graph& parent = input.view.parent;
  for (const PlannedSubgraph& ps : input.view.subgraphs) {
    const Graph& cg = ps.compiled.graph();
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      if (!valid_node(f.parent_producer, parent)) continue;  // feed-def
      if (!valid_node(f.input_node, cg)) continue;           // feed-def
      check_boundary(result, parent.node(f.parent_producer),
                     cg.node(f.input_node), ps.id, "placeholder");
    }
    const std::vector<NodeId>& outs = cg.outputs();
    if (outs.size() != ps.produces.size()) {
      result.add(finding(
          "boundary-type", kInvalidNode, ps.id,
          "produces lists " + std::to_string(ps.produces.size()) +
              " parent values but the compiled graph has " +
              std::to_string(outs.size()) + " outputs"));
      continue;
    }
    for (size_t i = 0; i < outs.size(); ++i) {
      if (!valid_node(ps.produces[i], parent)) continue;  // outputs-produced
      if (!valid_node(outs[i], cg)) continue;             // graph verifier
      check_boundary(result, parent.node(ps.produces[i]), cg.node(outs[i]),
                     ps.id, "output");
    }
  }
  return result;
}

// --- sync-elision ------------------------------------------------------------
// Every cross-device read must be dominated by a transfer-complete edge: some
// transfer stages the value onto the reader's device, and that staging either
// IS the reader (it awaits the DMA itself) or happens-before it through the
// queue-trigger order. missing-transfer proves a transfer exists per edge;
// this pass re-proves the *synchronization*, so a plan that elides a sync
// edge (e.g. after dependency surgery) is caught even when the transfer list
// still looks complete.
namespace {

template <typename DeviceOf>
bool dominated(const PlanView& view, const HappensBefore& hb,
               const DeviceOf& device_of, NodeId value,
               const PlannedSubgraph& reader) {
  for (const TransferStep& t : view.transfers) {
    if (t.parent_node != value) continue;
    const DeviceKind* dst_device = device_of(t.dst_subgraph);
    if (dst_device == nullptr || *dst_device != reader.device) continue;
    if (t.dst_subgraph == reader.id || hb.ordered(t.dst_subgraph, reader.id)) {
      return true;
    }
  }
  return false;
}

}  // namespace

VerifyResult sync_elision(const LintInput& input) {
  VerifyResult result;
  const PlanView& view = input.view;
  const Graph& parent = view.parent;
  const std::map<int, size_t> index = subgraph_index(view);
  const HappensBefore hb(view.subgraphs);

  std::map<NodeId, int> producer;  // value -> producing subgraph id
  for (const PlannedSubgraph& ps : view.subgraphs) {
    for (NodeId value : ps.produces) producer.emplace(value, ps.id);
  }
  const auto device_of = [&](int sid) -> const DeviceKind* {
    const auto it = index.find(sid);
    return it == index.end() ? nullptr : &view.subgraphs[it->second].device;
  };

  for (const PlannedSubgraph& ps : view.subgraphs) {
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      if (!valid_node(f.parent_producer, parent)) continue;  // feed-def
      if (parent.node(f.parent_producer).is_input()) continue;  // entry-staged
      const auto it = producer.find(f.parent_producer);
      if (it == producer.end()) continue;  // feed-def reports it
      const DeviceKind* src_device = device_of(it->second);
      if (src_device == nullptr || *src_device == ps.device) continue;
      if (dominated(view, hb, device_of, f.parent_producer, ps)) continue;
      result.add(finding(
          "sync-elision", f.parent_producer, ps.id,
          "cross-device read of %" + std::to_string(f.parent_producer) +
              " by subgraph #" + std::to_string(ps.id) + " on " +
              device_kind_name(ps.device) +
              " is not dominated by any transfer-complete edge"));
    }
  }
  return result;
}

// --- redundant-transfer ------------------------------------------------------
// Boundary values are SSA (one producer, never redefined), so shipping one
// value to the same device more than once can never be observing a fresh
// def — the later transfers re-pay link bytes for a copy already staged. The
// builder currently emits one transfer per (producer, consumer) edge, so a
// value fanning out to two consumers on the far device legitimately trips
// this; it is a warning (an optimization opportunity), not an error.
VerifyResult redundant_transfer(const LintInput& input) {
  VerifyResult result;
  const PlanView& view = input.view;
  const std::map<int, size_t> index = subgraph_index(view);

  // (value, destination device) -> destination subgraphs, in transfer order.
  std::map<std::pair<NodeId, int>, std::vector<int>> shipments;
  for (const TransferStep& t : view.transfers) {
    const auto it = index.find(t.dst_subgraph);
    if (it == index.end()) continue;  // spurious-transfer reports it
    const DeviceKind device = view.subgraphs[it->second].device;
    shipments[{t.parent_node, static_cast<int>(device)}].push_back(
        t.dst_subgraph);
  }
  for (const auto& [key, dsts] : shipments) {
    if (dsts.size() < 2) continue;
    std::string list;
    for (int d : dsts) list += (list.empty() ? "#" : ", #") + std::to_string(d);
    result.add(finding(
        "redundant-transfer", key.first, dsts.front(),
        "value %" + std::to_string(key.first) + " is shipped to " +
            device_kind_name(static_cast<DeviceKind>(key.second)) + " " +
            std::to_string(dsts.size()) +
            " times with no intervening def (consumers " + list +
            "); later consumers could reuse the staged copy"));
  }
  return result;
}

// --- dead-subgraph / unreachable-step ---------------------------------------
// A subgraph is live when its work reaches a parent graph output: it either
// produces an output value, or a live subgraph depends on it. Anything
// outside that backward closure is dead weight the partitioner should not
// have emitted, and every step that launches it is an unreachable step.
VerifyResult dead_subgraph(const LintInput& input) {
  VerifyResult result;
  const PlanView& view = input.view;
  const std::map<int, size_t> index = subgraph_index(view);
  const std::set<NodeId> outputs(view.parent.outputs().begin(),
                                 view.parent.outputs().end());

  std::set<int> live;
  std::vector<int> frontier;
  for (const PlannedSubgraph& ps : view.subgraphs) {
    for (NodeId value : ps.produces) {
      if (outputs.count(value) != 0) {
        if (live.insert(ps.id).second) frontier.push_back(ps.id);
        break;
      }
    }
  }
  while (!frontier.empty()) {
    const int sid = frontier.back();
    frontier.pop_back();
    const auto it = index.find(sid);
    if (it == index.end()) continue;
    for (int dep : view.subgraphs[it->second].dep_subgraphs) {
      if (live.insert(dep).second) frontier.push_back(dep);
    }
  }

  for (const PlannedSubgraph& ps : view.subgraphs) {
    if (live.count(ps.id) != 0) continue;
    result.add(finding("dead-subgraph", kInvalidNode, ps.id,
                       "no output of subgraph #" + std::to_string(ps.id) +
                           " reaches a graph output"));
  }
  for (size_t i = 0; i < view.step_order.size(); ++i) {
    const int sid = view.step_order[i];
    if (index.count(sid) == 0) continue;  // step-order reports it
    if (live.count(sid) != 0) continue;
    Diagnostic d = finding("unreachable-step", kInvalidNode, sid,
                           "step launches dead subgraph #" +
                               std::to_string(sid));
    d.location.step = static_cast<int>(i);
    result.add(std::move(d));
  }
  return result;
}

// --- swap-slot-size / swap-arena-alias --------------------------------------
// Recalibration swaps a new plan in while workers may still hold the retired
// snapshot through the grace window. Both plans serve the same parent graph,
// so a value that lives in both arenas must keep its byte size (a mismatch
// means one memory plan is corrupt — error). The old snapshot's held-to-end
// slots (graph outputs a straggling worker still writes/reads) overlapping
// the new plan's slots is expected when both arenas pack from offset 0 —
// executors allocate separate arenas per plan — so aliasing is reported as
// one aggregate warning per device, for operators auditing a shared-arena
// deployment. Both checks are silent unless a retired plan is given.
VerifyResult swap_slot_size(const LintInput& input) {
  VerifyResult result;
  if (input.previous_memory == nullptr || input.memory == nullptr) {
    return result;
  }
  for (const ArenaSlot& old_slot : input.previous_memory->slots()) {
    const ArenaSlot* now = input.memory->find(old_slot.device, old_slot.value);
    if (now == nullptr || now->bytes == old_slot.bytes) continue;
    result.add(finding(
        "swap-slot-size", old_slot.value, -1,
        "value %" + std::to_string(old_slot.value) + " held " +
            std::to_string(old_slot.bytes) + " bytes in the retired " +
            device_kind_name(old_slot.device) +
            " arena but the swapped-in plan assigns " +
            std::to_string(now->bytes)));
  }
  return result;
}

VerifyResult swap_arena_alias(const LintInput& input) {
  VerifyResult result;
  if (input.previous_memory == nullptr || input.memory == nullptr) {
    return result;
  }
  const MemoryPlan& old_mem = *input.previous_memory;
  const MemoryPlan& new_mem = *input.memory;
  for (int d = 0; d < kNumDeviceKinds; ++d) {
    const DeviceKind device = static_cast<DeviceKind>(d);
    size_t overlaps = 0;
    for (const ArenaSlot& old_slot : old_mem.slots()) {
      if (!old_slot.held_to_end || old_slot.device != device ||
          old_slot.bytes == 0) {
        continue;
      }
      for (const ArenaSlot& slot : new_mem.slots()) {
        if (slot.device != device || slot.bytes == 0) continue;
        if (old_slot.offset + old_slot.bytes <= slot.offset ||
            slot.offset + slot.bytes <= old_slot.offset) {
          continue;
        }
        ++overlaps;
      }
    }
    if (overlaps == 0) continue;
    result.add(finding(
        "swap-arena-alias", kInvalidNode, -1,
        std::to_string(overlaps) + " live slot pair(s) of the retired " +
            std::string(device_kind_name(device)) +
            " arena alias the swapped-in plan's ranges; sharing one arena "
            "across the swap would require a full drain, not a grace "
            "window"));
  }
  return result;
}

// --- symbolic-shape-contract / unbounded-dim ---------------------------------
// Batch-polymorphism audit: run symbolic shape inference over the parent
// graph with the default batch symbol and surface every op whose shape
// contract cannot be expressed over it (a reshape folding the batch away, an
// inexact stride division, a rank break) plus every symbolic dim with no
// finite declared range. Warning severity: a batch-monomorphic graph still
// executes correctly at its traced shape — it just cannot join
// shape-bucketed compilation.
VerifyResult symbolic_shape_contract(const LintInput& input) {
  symbolic::SymbolicShapes shapes = symbolic::infer_symbolic(input.view.parent);
  return std::move(shapes.diagnostics);
}

// --- transfer-blowup ----------------------------------------------------------
// For each subgraph, compare how boundary transfer bytes and flops grow with
// the batch symbol. When transfers grow strictly faster (e.g. an
// embedding-only subgraph: zero flops, linear transfer), scaling the batch
// makes a cross-device placement progressively worse — the scheduler should
// know this subgraph is link-bound by construction, not by profiling.
VerifyResult transfer_blowup(const LintInput& input) {
  VerifyResult result;
  const Graph& parent = input.view.parent;
  const symbolic::SymbolicShapes shapes = symbolic::infer_symbolic(parent);
  if (shapes.batch_symbol.empty()) return result;
  const std::vector<symbolic::SymSubgraphCost> costs =
      symbolic::sym_partition_costs(parent, input.view.partition, shapes);
  for (const symbolic::SymSubgraphCost& c : costs) {
    const symbolic::SymExpr transfer =
        c.transfer_in_bytes + c.transfer_out_bytes;
    if (transfer.is_zero()) continue;
    const int tdeg = transfer.degree(shapes.batch_symbol);
    const int fdeg = c.flops.degree(shapes.batch_symbol);
    if (tdeg <= fdeg) continue;
    result.add(finding(
        "transfer-blowup", kInvalidNode, c.subgraph,
        "boundary transfer bytes (" + transfer.to_string() + ") grow as " +
            shapes.batch_symbol + "^" + std::to_string(tdeg) +
            " but flops (" + c.flops.to_string() + ") only as " +
            shapes.batch_symbol + "^" + std::to_string(fdeg) +
            "; a cross-device placement of subgraph #" +
            std::to_string(c.subgraph) + " degrades as the batch scales"));
  }
  return result;
}

// --- memo-bitset-fallback -----------------------------------------------------
// The latency evaluator memoizes placements as a 64-bit device bitset and
// silently switches to string keys past 64 subgraphs
// (src/sched/latency_model.cpp). The ROADMAP wants the 2-device assumption
// retired; until then, make plans that cross the cliff visible.
VerifyResult memo_bitset_fallback(const LintInput& input) {
  VerifyResult result;
  const size_t n = input.view.subgraphs.size();
  if (n <= 64) return result;
  result.add(finding(
      "memo-bitset-fallback", kInvalidNode, -1,
      "plan has " + std::to_string(n) +
          " subgraphs; the latency evaluator's placement memo exceeds its "
          "64-subgraph bitset and falls back to slower string keys (see "
          "sched.eval.memo_large_key)"));
  return result;
}

// --- telemetry-unbounded-series ----------------------------------------------
// The metrics registry keys series by bare name, so "per-request" or
// "per-plan-version" metrics (serve.request.42.latency_us, ...) grow the
// registry without bound and make every scrape larger than the last — the
// classic unbounded-label-cardinality failure. The pass groups registered
// names by their template (digit-only dot segments replaced by "<id>") and
// warns when one template has accumulated several distinct numeric
// instantiations. It audits process state, not the plan, so it reports
// whatever instrumentation bug the current process has already committed.
namespace {

constexpr size_t kSeriesThreshold = 4;

// "serve.request.42.latency_us" -> ("serve.request.<id>.latency_us", true).
std::pair<std::string, bool> name_template(const std::string& name) {
  std::string out;
  bool numeric = false;
  size_t start = 0;
  while (start <= name.size()) {
    const size_t dot = name.find('.', start);
    const size_t end = dot == std::string::npos ? name.size() : dot;
    const std::string segment = name.substr(start, end - start);
    const bool digits =
        !segment.empty() &&
        std::all_of(segment.begin(), segment.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; });
    if (!out.empty() || start > 0) out += '.';
    out += digits ? "<id>" : segment;
    numeric = numeric || digits;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return {out, numeric};
}

}  // namespace

VerifyResult telemetry_unbounded_series(const LintInput& /*input*/) {
  VerifyResult result;
  std::map<std::string, size_t> families;
  const auto count = [&families](const auto& series) {
    for (const auto& entry : series) {
      const auto [tmpl, numeric] = name_template(entry.first);
      if (numeric) families[tmpl]++;
    }
  };
  const telemetry::MetricsRegistry& registry =
      telemetry::MetricsRegistry::instance();
  count(registry.counters());
  count(registry.gauges());
  count(registry.histograms());
  for (const auto& [tmpl, instances] : families) {
    if (instances < kSeriesThreshold) continue;
    result.add(finding(
        "telemetry-unbounded-series", kInvalidNode, -1,
        "metric family \"" + tmpl + "\" has " + std::to_string(instances) +
            " numeric-id series; per-entity ids in metric names are "
            "unbounded cardinality — use one series plus the flight "
            "recorder / trace ids for per-request detail"));
  }
  return result;
}

}  // namespace duet::lint
