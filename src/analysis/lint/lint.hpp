#pragma once

// The plan checker. A Check is one named analysis over a plan (and
// optionally the plan it replaced): a plain {id, run} descriptor whose id is
// the primary rule it reports under (an entry in lint/rules.hpp; a check may
// report secondary rules too, none more severe than the primary). Every
// finding takes its severity from the rule catalogue. LintSuite::standard()
// runs the standard table — the structural validators first (partition,
// placement, plan, races), then the lint passes, which skip what the
// validators own — and is the only plan checker: checked mode reaches it
// through check_plan(), and `duet_cli lint` surfaces it (text / JSON /
// SARIF). Adding a plan check means appending a descriptor to the table
// (lint.cpp) and a row to the rule catalogue.
//
// Checks take a PlanView (analysis/plan_validator.hpp) so corruption tests
// can substitute individual plan components.

#include <span>
#include <string>

#include "analysis/diagnostics.hpp"
#include "analysis/plan_validator.hpp"
#include "runtime/memory_plan.hpp"

namespace duet::lint {

// What a check inspects. `previous_memory` is the arena of the plan an
// in-flight recalibration swap retires (nullable; only the swap audit reads
// it — a worker holding the old snapshot may still touch its held-to-end
// slots during the grace window).
struct LintInput {
  PlanView view;
  const MemoryPlan* memory = nullptr;
  const MemoryPlan* previous_memory = nullptr;
};

// Borrows everything from `plan`; the plan must outlive the input.
LintInput make_input(const ExecutionPlan& plan);

struct Check {
  const char* id;  // primary rule id, stamped as each finding's context
  VerifyResult (*run)(const LintInput& input);
};

// The lint passes (analysis/lint/passes.cpp), in table order.
VerifyResult boundary_type(const LintInput& input);
VerifyResult sync_elision(const LintInput& input);
VerifyResult redundant_transfer(const LintInput& input);
VerifyResult dead_subgraph(const LintInput& input);
VerifyResult swap_slot_size(const LintInput& input);
VerifyResult swap_arena_alias(const LintInput& input);
// Symbolic batch-polymorphism audits (analysis/symbolic/).
VerifyResult symbolic_shape_contract(const LintInput& input);
VerifyResult transfer_blowup(const LintInput& input);
// Visibility note for the latency evaluator's 64-subgraph memo bitset.
VerifyResult memo_bitset_fallback(const LintInput& input);
// Metric-registry hygiene: flags families of metric names that embed
// per-entity numeric ids (unbounded series cardinality).
VerifyResult telemetry_unbounded_series(const LintInput& input);

// Validators first, then the lint passes; order == catalogue order.
std::span<const Check> standard_checks();

class LintSuite {
 public:
  static LintSuite standard() { return {}; }

  // Runs every standard check, stamps each diagnostic's context with the
  // producing check's id and its artifact with the parent graph's name, and
  // returns the merged result in deterministic order (VerifyResult::sort).
  // Throws Error when a check with a warning primary rule reports an error.
  VerifyResult run(const LintInput& input) const;
  VerifyResult run(const ExecutionPlan& plan) const {
    return run(make_input(plan));
  }
};

// Checked mode's one call: when verification_enabled(), runs the standard
// checks that can fail a plan — those whose primary rule is an error —
// over `plan` inside a "check-plan" span (category "analysis", detail = the
// parent graph's name) and throws VerifyError prefixed with `what` on any
// error. Warning-only checks cannot fail a plan; `duet_cli lint` runs them.
void check_plan(const ExecutionPlan& plan, const std::string& what);

}  // namespace duet::lint
