#include "analysis/lint/lint.hpp"

#include "analysis/lint/rules.hpp"
#include "analysis/race_checker.hpp"
#include "telemetry/telemetry.hpp"

namespace duet::lint {
namespace {

// The structural validators own their rules; the lint passes after them skip
// ids those rules reject, so one corruption yields one diagnostic.
constexpr Check kStandardChecks[] = {
    {"partition-coverage",
     [](const LintInput& in) {
       return verify_partition(in.view.parent, in.view.partition);
     }},
    {"placement-size",
     [](const LintInput& in) {
       return verify_placement(in.view.placement, in.view.partition);
     }},
    {"plan-size", [](const LintInput& in) { return verify_plan(in.view); }},
    {"race-read-write",
     [](const LintInput& in) { return verify_races(in.view, in.memory); }},
    {"boundary-type", boundary_type},
    {"sync-elision", sync_elision},
    {"redundant-transfer", redundant_transfer},
    {"dead-subgraph", dead_subgraph},
    {"swap-slot-size", swap_slot_size},
    {"swap-arena-alias", swap_arena_alias},
    {"symbolic-shape-contract", symbolic_shape_contract},
    {"transfer-blowup", transfer_blowup},
    {"memo-bitset-fallback", memo_bitset_fallback},
    {"telemetry-unbounded-series", telemetry_unbounded_series},
};

// A check reports nothing more severe than its primary rule (run_checks
// enforces it), so only checks with an error primary rule can fail a plan.
bool can_fail(const Check& check) {
  return find_rule(check.id)->severity == Diagnostic::Severity::kError;
}

VerifyResult run_checks(const LintInput& input, bool failing_only) {
  VerifyResult merged;
  for (const Check& check : kStandardChecks) {
    const bool fails = can_fail(check);
    if (failing_only && !fails) continue;
    VerifyResult result = check.run(input);
    DUET_CHECK(fails || result.ok())
        << "check " << check.id << " reported an error under a warning rule";
    result.attribute(check.id);
    merged.merge(std::move(result));
  }
  merged.set_artifact(input.view.parent.name());
  merged.sort();
  return merged;
}

}  // namespace

LintInput make_input(const ExecutionPlan& plan) {
  return LintInput{PlanView::of(plan), plan.memory_plan(), nullptr};
}

std::span<const Check> standard_checks() { return kStandardChecks; }

VerifyResult LintSuite::run(const LintInput& input) const {
  return run_checks(input, /*failing_only=*/false);
}

void check_plan(const ExecutionPlan& plan, const std::string& what) {
  if (!verification_enabled()) return;
  telemetry::ScopedSpan span("check-plan", "analysis", plan.parent().name());
  run_checks(make_input(plan), /*failing_only=*/true).throw_if_failed(what);
}

}  // namespace duet::lint
