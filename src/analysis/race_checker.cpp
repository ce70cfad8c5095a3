#include "analysis/race_checker.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analysis/lint/rules.hpp"
#include "analysis/liveness.hpp"
#include "graph/shape_inference.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {
namespace {

// Every race-checker diagnostic (error or warning) feeds the global
// "analysis.race_findings" counter so `duet_cli stats` surfaces them.
VerifyResult record_findings(VerifyResult result) {
  if (telemetry::enabled() && !result.diagnostics().empty()) {
    telemetry::counter("analysis.race_findings")
        .add(result.diagnostics().size());
  }
  return result;
}

bool valid_id(int sid, size_t n) {
  return sid >= 0 && static_cast<size_t>(sid) < n;
}

}  // namespace

VerifyResult verify_races(const PlanView& view, const MemoryPlan* memory) {
  VerifyResult result;
  const size_t n = view.subgraphs.size();
  const HappensBefore hb(view.subgraphs);

  // Writers of each boundary value.
  std::map<NodeId, std::vector<int>> writers;
  for (const PlannedSubgraph& ps : view.subgraphs) {
    for (NodeId value : ps.produces) writers[value].push_back(ps.id);
  }

  // Launch-order positions, when the order is a usable permutation (the
  // plan validator reports malformed orders; -1 marks unscheduled ids).
  std::vector<int> pos(n, -1);
  if (view.step_order.size() == n) {
    for (size_t i = 0; i < view.step_order.size(); ++i) {
      const int sid = view.step_order[i];
      if (valid_id(sid, n)) pos[static_cast<size_t>(sid)] = static_cast<int>(i);
    }
  }

  // write/write: two producers of one value with no trigger chain between
  // them can interleave their stores.
  for (const auto& [value, who] : writers) {
    for (size_t i = 0; i < who.size(); ++i) {
      for (size_t j = i + 1; j < who.size(); ++j) {
        if (hb.ordered(who[i], who[j]) || hb.ordered(who[j], who[i])) continue;
        result.add(lint::finding(
            "race-write-write", value, who[j],
            "value %" + std::to_string(value) + " written by subgraphs #" +
                std::to_string(who[i]) + " and #" + std::to_string(who[j]) +
                " with no happens-before edge"));
      }
    }
  }

  // read/write: every read must be ordered after the write it observes, both
  // in the partial order (the synchronization that exists) and in the launch
  // order (the schedule the queues replay).
  for (const PlannedSubgraph& ps : view.subgraphs) {
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      if (!valid_id(f.parent_producer, view.parent.num_nodes())) continue;
      if (view.parent.node(f.parent_producer).is_input()) continue;
      const auto it = writers.find(f.parent_producer);
      if (it == writers.end()) continue;  // feed-def reports the missing producer
      for (int writer : it->second) {
        if (writer == ps.id) continue;
        if (!hb.ordered(writer, ps.id)) {
          result.add(lint::finding(
              "race-read-write", f.parent_producer, ps.id,
              "subgraph #" + std::to_string(ps.id) + " reads %" +
                  std::to_string(f.parent_producer) +
                  " concurrently with its write in #" +
                  std::to_string(writer)));
        }
        if (valid_id(writer, n) && valid_id(ps.id, n) &&
            pos[static_cast<size_t>(writer)] >= 0 &&
            pos[static_cast<size_t>(ps.id)] >= 0 &&
            pos[static_cast<size_t>(writer)] > pos[static_cast<size_t>(ps.id)]) {
          result.add(lint::finding(
              "race-step-order", f.parent_producer, ps.id,
              "launch order schedules the read of %" +
                  std::to_string(f.parent_producer) + " in #" +
                  std::to_string(ps.id) + " (step " +
                  std::to_string(pos[static_cast<size_t>(ps.id)]) +
                  ") before its write in #" + std::to_string(writer) +
                  " (step " +
                  std::to_string(pos[static_cast<size_t>(writer)]) + ")"));
        }
      }
    }
  }

  // Every transfer is a read of the source copy on the destination worker;
  // only a trigger chain src -> dst makes that DMA well-ordered.
  for (const TransferStep& t : view.transfers) {
    if (t.src_subgraph == t.dst_subgraph) continue;
    if (!hb.ordered(t.src_subgraph, t.dst_subgraph)) {
      result.add(lint::finding(
          "race-transfer-order", t.parent_node, t.dst_subgraph,
          "transfer of %" + std::to_string(t.parent_node) + " from #" +
              std::to_string(t.src_subgraph) + " to #" +
              std::to_string(t.dst_subgraph) +
              " is not ordered by any trigger chain"));
    }
  }

  if (memory == nullptr) {
    result.set_artifact(view.parent.name());
    return record_findings(std::move(result));
  }

  // Slot coverage: the executors route every boundary value through its
  // arena slot, so a missing or mis-sized one is a correctness bug.
  const auto check_slot = [&](DeviceKind device, NodeId value, int subgraph) {
    if (!valid_id(value, view.parent.num_nodes())) return;
    const uint64_t want = node_output_bytes(view.parent.node(value));
    const ArenaSlot* slot = memory->find(device, value);
    if (slot == nullptr) {
      result.add(lint::finding("slot-missing", value, subgraph,
                               "no " + std::string(device_kind_name(device)) +
                                   " arena slot for boundary value %" +
                                   std::to_string(value)));
    } else if (slot->bytes != want) {
      result.add(lint::finding(
          "slot-size", value, subgraph,
          "arena slot for %" + std::to_string(value) + " holds " +
              std::to_string(slot->bytes) + " bytes, value needs " +
              std::to_string(want)));
    }
  };
  for (const PlannedSubgraph& ps : view.subgraphs) {
    for (NodeId value : ps.produces) check_slot(ps.device, value, ps.id);
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      if (!valid_id(f.parent_producer, view.parent.num_nodes())) continue;
      if (view.parent.node(f.parent_producer).is_input()) {
        // Host inputs are staged only onto the GPU; CPU reads host memory.
        if (ps.device == DeviceKind::kGpu) {
          check_slot(DeviceKind::kGpu, f.parent_producer, ps.id);
        }
        continue;
      }
      check_slot(ps.device, f.parent_producer, ps.id);
    }
  }

  // Arena aliasing: overlapping byte ranges are only safe when every access
  // of one tenant happens-before every access of the other (and the earlier
  // tenant is not a graph output, which must survive to the end).
  const std::vector<ArenaSlot>& slots = memory->slots();
  std::vector<std::vector<int>> accesses(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    accesses[i] = interval_accesses(slots[i].def_subgraph, slots[i].uses);
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    const ArenaSlot& a = slots[i];
    if (a.bytes == 0) continue;
    for (size_t j = i + 1; j < slots.size(); ++j) {
      const ArenaSlot& b = slots[j];
      if (b.bytes == 0 || b.device != a.device) continue;
      if (a.offset + a.bytes <= b.offset || b.offset + b.bytes <= a.offset) {
        continue;  // disjoint ranges
      }
      const bool a_first =
          !a.held_to_end && accesses_precede(accesses[i], accesses[j], hb);
      const bool b_first =
          !b.held_to_end && accesses_precede(accesses[j], accesses[i], hb);
      if (a_first || b_first) continue;
      result.add(lint::finding(
          "race-slot-alias", b.value, b.def_subgraph,
          "values %" + std::to_string(a.value) + " and %" +
              std::to_string(b.value) + " overlap in the " +
              device_kind_name(a.device) +
              " arena without a happens-before order between their accesses"));
    }
  }
  result.set_artifact(view.parent.name());
  return record_findings(std::move(result));
}

VerifyResult verify_races(const ExecutionPlan& plan) {
  return verify_races(PlanView::of(plan), plan.memory_plan());
}

}  // namespace duet
