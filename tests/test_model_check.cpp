// Tests for the small-scope serve-protocol model checker
// (src/analysis/model_check), which drives the real request lifecycle
// (serve/lifecycle.hpp): the correct driver passes all five invariants
// exhaustively, at one tenant and at two tenants with coalescing; each
// seeded-bad driver mutation is caught under its expected mc-* rule; and
// sleep-set pruning shrinks the search without changing the verdict.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/model_check/explorer.hpp"

namespace duet::mc {
namespace {

bool has_rule(const VerifyResult& r, const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

TEST(ModelCheck, CorrectProtocolIsExhaustivelyClean) {
  // The acceptance configuration: 2 producers x 2 requests, 2 workers, one
  // tenant, queue capacity 2, max_batch 1, 1 plan swap, plus the drain
  // thread.
  const ExploreResult r = explore(ProtocolConfig{});
  EXPECT_TRUE(r.ok) << r.findings.to_string();
  EXPECT_TRUE(r.exhausted) << r.summary();
  EXPECT_TRUE(r.counterexamples.empty());
  EXPECT_EQ(r.findings.diagnostics().size(), 0u) << r.findings.to_string();
  // Sanity: this is a real interleaving space, not a trivial chain.
  EXPECT_GT(r.states_visited, 1000u) << r.summary();
  EXPECT_GT(r.max_depth_seen, 10);
}

TEST(ModelCheck, SilentDropOnFullBreaksQueueAccounting) {
  ProtocolConfig config;
  config.variant = Variant::kSilentDropOnFull;
  const ExploreResult r = explore(config);
  EXPECT_FALSE(r.ok) << r.summary();
  EXPECT_TRUE(r.findings.has_error("mc-queue-accounting"))
      << r.findings.to_string();
  EXPECT_FALSE(r.counterexamples.empty());
}

TEST(ModelCheck, MissedCloseWakeupDeadlocks) {
  ProtocolConfig config;
  config.variant = Variant::kMissedCloseWakeup;
  const ExploreResult r = explore(config);
  EXPECT_FALSE(r.ok) << r.summary();
  EXPECT_TRUE(r.findings.has_error("mc-lost-wakeup"))
      << r.findings.to_string();
  EXPECT_FALSE(r.counterexamples.empty());
}

TEST(ModelCheck, UnrefSnapshotRunsRetiredPlan) {
  ProtocolConfig config;
  config.variant = Variant::kUnrefSnapshot;
  const ExploreResult r = explore(config);
  EXPECT_FALSE(r.ok) << r.summary();
  EXPECT_TRUE(r.findings.has_error("mc-snapshot-retired"))
      << r.findings.to_string();
  EXPECT_FALSE(r.counterexamples.empty());
}

TEST(ModelCheck, ResolveBeforeSideEffectsBreaksDrainQuiescence) {
  ProtocolConfig config;
  config.variant = Variant::kResolveBeforeSideEffects;
  const ExploreResult r = explore(config);
  EXPECT_FALSE(r.ok) << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
  EXPECT_TRUE(r.findings.has_error("mc-drain-quiescence"))
      << r.findings.to_string();
  EXPECT_FALSE(r.counterexamples.empty());
}

TEST(ModelCheck, UncountedFailureBreaksConservation) {
  ProtocolConfig config;
  config.variant = Variant::kUncountedFailure;
  const ExploreResult r = explore(config);
  EXPECT_FALSE(r.ok) << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
  EXPECT_TRUE(r.findings.has_error("mc-conservation"))
      << r.findings.to_string();
  ASSERT_FALSE(r.counterexamples.empty());
  bool traced = false;
  for (const std::string& trace : r.counterexamples) {
    if (trace.find("mc-conservation") == std::string::npos) continue;
    traced = true;
    EXPECT_NE(trace.find("run-fails"), std::string::npos) << trace;
  }
  EXPECT_TRUE(traced);
}

// Two tenants (WFQ weights 2:1, only the first sheds) and max_batch 2, so
// picks coalesce across tenants and a late pick can shed one member while
// running the other. The plan swapper is left out: its protocol does not
// touch the queue, and the one-tenant scope covers it.
ProtocolConfig two_tenant_scope() {
  ProtocolConfig config;
  config.tenants = {{"gold", 2.0, 1.0}, {"silver", 1.0, 0.0}};
  config.max_batch = 2;
  config.swaps = 0;
  return config;
}

TEST(ModelCheck, TwoTenantCoalescingScopeIsExhaustivelyClean) {
  const ExploreResult r = explore(two_tenant_scope());
  EXPECT_TRUE(r.ok) << r.findings.to_string();
  EXPECT_TRUE(r.exhausted) << r.summary();
  EXPECT_EQ(r.findings.diagnostics().size(), 0u) << r.findings.to_string();
  EXPECT_GT(r.states_visited, 1000u) << r.summary();
}

TEST(ModelCheck, TwoTenantScopeCatchesResolveBeforeSideEffects) {
  ProtocolConfig config = two_tenant_scope();
  config.variant = Variant::kResolveBeforeSideEffects;
  const ExploreResult r = explore(config);
  EXPECT_TRUE(r.exhausted) << r.summary();
  EXPECT_TRUE(r.findings.has_error("mc-drain-quiescence"))
      << r.findings.to_string();
}

TEST(ModelCheck, FindingsCarryVariantArtifactAndContext) {
  ProtocolConfig config;
  config.variant = Variant::kSilentDropOnFull;
  const ExploreResult r = explore(config);
  ASSERT_FALSE(r.findings.diagnostics().empty());
  for (const Diagnostic& d : r.findings.diagnostics()) {
    EXPECT_EQ(d.context, "model-check") << d.to_string();
    EXPECT_NE(d.location.artifact.find("serve-protocol:"), std::string::npos)
        << d.to_string();
    EXPECT_NE(d.location.artifact.find(variant_name(config.variant)),
              std::string::npos)
        << d.to_string();
  }
}

TEST(ModelCheck, SleepSetsPruneWithoutChangingVerdict) {
  ExploreOptions with, without;
  without.sleep_sets = false;
  // Correct variant: both verdicts clean, pruned run strictly smaller.
  const ExploreResult pruned = explore(ProtocolConfig{}, with);
  const ExploreResult full = explore(ProtocolConfig{}, without);
  EXPECT_TRUE(pruned.ok && full.ok);
  EXPECT_TRUE(pruned.exhausted && full.exhausted);
  EXPECT_LT(pruned.transitions_executed, full.transitions_executed)
      << "sleep sets should prune at least one independent pair ("
      << pruned.summary() << " vs " << full.summary() << ")";
  // Bad variant: pruning must not mask the violation.
  ProtocolConfig bad;
  bad.variant = Variant::kUncountedFailure;
  const ExploreResult bad_pruned = explore(bad, with);
  const ExploreResult bad_full = explore(bad, without);
  EXPECT_TRUE(bad_pruned.findings.has_error("mc-conservation"));
  EXPECT_TRUE(bad_full.findings.has_error("mc-conservation"));
}

TEST(ModelCheck, DepthBoundTruncationIsReportedAsWarning) {
  ExploreOptions options;
  options.max_depth = 4;  // far below the ~25 steps a full run needs
  const ExploreResult r = explore(ProtocolConfig{}, options);
  EXPECT_FALSE(r.exhausted);
  EXPECT_TRUE(has_rule(r.findings, "mc-depth-bound"))
      << r.findings.to_string();
  EXPECT_EQ(r.findings.error_count(), 0u) << r.findings.to_string();
  EXPECT_GE(r.findings.warning_count(), 1u);
}

TEST(ModelCheck, StateBoundTruncationIsReported) {
  ExploreOptions options;
  options.max_states = 50;
  const ExploreResult r = explore(ProtocolConfig{}, options);
  EXPECT_FALSE(r.exhausted);
  EXPECT_LE(r.states_visited, 50u);
  EXPECT_TRUE(has_rule(r.findings, "mc-depth-bound"))
      << r.findings.to_string();
}

TEST(ModelCheck, ExplorationIsDeterministic) {
  const ExploreResult a = explore(ProtocolConfig{});
  const ExploreResult b = explore(ProtocolConfig{});
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.transitions_executed, b.transitions_executed);
  EXPECT_EQ(a.max_depth_seen, b.max_depth_seen);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(ModelCheck, SmallerScopeStillExercisesSwapRetire) {
  // 1 producer / 1 consumer / 1 swap still reaches retirement; retired mask
  // must end non-zero on at least one terminal path — verified indirectly:
  // the unref variant is caught even at minimal scope.
  ProtocolConfig config;
  config.producers = 1;
  config.workers = 1;
  config.requests_per_producer = 1;
  config.queue_capacity = 1;
  config.variant = Variant::kUnrefSnapshot;
  const ExploreResult r = explore(config);
  EXPECT_TRUE(r.exhausted) << r.summary();
  EXPECT_TRUE(r.findings.has_error("mc-snapshot-retired"))
      << r.findings.to_string();
}

TEST(ModelCheck, VariantNamesAreDistinct) {
  const Variant variants[] = {
      Variant::kCorrect,         Variant::kSilentDropOnFull,
      Variant::kMissedCloseWakeup, Variant::kUnrefSnapshot,
      Variant::kResolveBeforeSideEffects, Variant::kUncountedFailure};
  std::set<std::string> names;
  for (const Variant v : variants) {
    EXPECT_TRUE(names.insert(variant_name(v)).second) << variant_name(v);
    EXPECT_STRNE(variant_name(v), "unknown");
  }
}

}  // namespace
}  // namespace duet::mc
