#pragma once

// Static validators for the scheduling artifacts (ISSUE 1 tentpole, part 3):
//
//   * verify_partition  — Partition vs parent graph: every live compute node
//     owned by exactly one subgraph, phases consistent, boundary producers
//     sane.
//   * verify_placement  — Placement vs Partition: every subgraph placed,
//     device kinds valid.
//   * verify_plan       — ExecutionPlan vs partitioned graph: feeds resolve,
//     no use-before-def (every non-input feed backed by a declared dep),
//     exactly one transfer per cross-device edge and none for same-device
//     edges, step order respects dependencies, consumers lists are the exact
//     inverse of deps, every parent output produced once.
//
// All validators return structured diagnostics (analysis/diagnostics.hpp)
// instead of throwing, so a broken scheduler surfaces every violated rule at
// once. PlanView exists so tests can corrupt individual plan components
// without mutable access to ExecutionPlan.

#include "analysis/diagnostics.hpp"
#include "runtime/plan.hpp"

namespace duet {

VerifyResult verify_partition(const Graph& parent, const Partition& partition);
VerifyResult verify_placement(const Placement& placement, const Partition& partition);

// A borrowed view of a plan's components; every reference must outlive the
// view. Tests build corrupted views from copies of a valid plan's vectors.
struct PlanView {
  // The view of an intact plan (borrowed; `plan` must outlive it).
  static PlanView of(const ExecutionPlan& plan) {
    return {plan.parent(),    plan.partition(), plan.placement(),
            plan.subgraphs(), plan.consumers(), plan.transfers(),
            plan.step_order()};
  }

  const Graph& parent;
  const Partition& partition;
  const Placement& placement;
  const std::vector<PlannedSubgraph>& subgraphs;
  const std::vector<std::vector<int>>& consumers;
  const std::vector<TransferStep>& transfers;
  const std::vector<int>& step_order;
};

VerifyResult verify_plan(const PlanView& view);
VerifyResult verify_plan(const ExecutionPlan& plan);

}  // namespace duet
