// Tests for the unified lint framework (src/analysis/lint): one seeded
// corruption per lint rule (mirroring test_verifier.cpp's PlanFixture
// style), suite determinism, the rule catalogue's integrity, and the SARIF
// 2.1.0 export.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "analysis/lint/lint.hpp"
#include "analysis/lint/rules.hpp"
#include "analysis/lint/sarif.hpp"
#include "graph/builder.hpp"
#include "partition/partitioner.hpp"
#include "runtime/plan.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"

namespace duet {
namespace {

bool has_rule(const VerifyResult& r, const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

Graph branchy_graph() {
  GraphBuilder b("branchy");
  const NodeId x = b.input(Shape{1, 16}, "x");
  const NodeId d = b.dense(x, 8);
  const NodeId a = b.relu(b.relu(d));
  const NodeId s = b.sigmoid(b.sigmoid(d));
  return b.finish({b.add(a, s)});
}

struct PlanFixture {
  Graph graph = branchy_graph();
  Partition partition;
  Placement placement;
  DevicePair devices = make_default_device_pair();
  ExecutionPlan plan;

  PlanFixture() {
    partition = partition_phased(graph);
    placement = Placement(partition.subgraphs.size(), DeviceKind::kCpu);
    // One multi-path branch on the GPU so the plan has cross-device edges.
    for (const Phase& phase : partition.phases) {
      if (phase.type == PhaseType::kMultiPath) {
        placement.set(phase.subgraphs.back(), DeviceKind::kGpu);
        break;
      }
    }
    plan = ExecutionPlan::build(graph, partition, placement, devices,
                                CompileOptions::compiler_defaults());
  }

  lint::LintInput input() const { return lint::make_input(plan); }

  lint::LintInput input_with_subgraphs(
      const std::vector<PlannedSubgraph>& subgraphs) const {
    return lint::LintInput{
        PlanView{plan.parent(), plan.partition(), plan.placement(), subgraphs,
                 plan.consumers(), plan.transfers(), plan.step_order()},
        plan.memory_plan(), nullptr};
  }

  lint::LintInput input_with_transfers(
      const std::vector<TransferStep>& transfers) const {
    return lint::LintInput{
        PlanView{plan.parent(), plan.partition(), plan.placement(),
                 plan.subgraphs(), plan.consumers(), transfers,
                 plan.step_order()},
        plan.memory_plan(), nullptr};
  }
};

// --- suite ----------------------------------------------------------------------

TEST(LintSuite, CleanPlanHasNoErrors) {
  PlanFixture f;
  const VerifyResult r = lint::LintSuite::standard().run(f.plan);
  EXPECT_EQ(r.error_count(), 0u) << r.to_string();
}

TEST(LintSuite, DiagnosticsCarryPassContextAndArtifact) {
  PlanFixture f;
  std::vector<TransferStep> transfers = f.plan.transfers();
  ASSERT_FALSE(transfers.empty()) << "fixture must have cross-device edges";
  transfers.push_back(transfers.front());  // redundant shipment
  const VerifyResult r =
      lint::LintSuite::standard().run(f.input_with_transfers(transfers));
  ASSERT_TRUE(has_rule(r, "redundant-transfer")) << r.to_string();
  for (const Diagnostic& d : r.diagnostics()) {
    EXPECT_FALSE(d.context.empty()) << d.to_string();
    EXPECT_EQ(d.location.artifact, f.graph.name()) << d.to_string();
  }
}

TEST(LintSuite, OutputIsDeterministic) {
  PlanFixture f;
  const lint::LintSuite suite = lint::LintSuite::standard();
  const VerifyResult a = suite.run(f.plan);
  const VerifyResult b = suite.run(f.plan);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(LintSuite, ValidatorsRunBeforeLintPasses) {
  const std::span<const lint::Check> checks = lint::standard_checks();
  ASSERT_GE(checks.size(), 5u);
  EXPECT_EQ(std::string(checks[0].id), "partition-coverage");
  EXPECT_EQ(std::string(checks[1].id), "placement-size");
  EXPECT_EQ(std::string(checks[2].id), "plan-size");
  EXPECT_EQ(std::string(checks[3].id), "race-read-write");
}

// Each placement finding is reported once, by the placement validator's
// check — not again by the plan validator that consumes the placement.
TEST(LintSuite, CorruptedPlacementIsReportedOnce) {
  PlanFixture f;
  const auto run_with = [&f](const Placement& placement) {
    const PlanView view{f.plan.parent(),    f.plan.partition(),
                        placement,          f.plan.subgraphs(),
                        f.plan.consumers(), f.plan.transfers(),
                        f.plan.step_order()};
    return lint::LintSuite::standard().run(
        lint::LintInput{view, f.plan.memory_plan(), nullptr});
  };
  const auto expect_once = [](const VerifyResult& r, const std::string& rule,
                              const std::string& check) {
    std::set<std::string> seen;
    size_t found = 0;
    for (const Diagnostic& d : r.diagnostics()) {
      EXPECT_TRUE(seen.insert(d.to_string()).second)
          << "reported twice: " << d.to_string();
      if (d.rule != rule) continue;
      ++found;
      EXPECT_EQ(d.context, check) << d.to_string();
    }
    EXPECT_EQ(found, 1u) << rule << " in\n" << r.to_string();
  };

  const Placement oversized(f.plan.placement().size() + 1);
  expect_once(run_with(oversized), "placement-size", "placement-size");

  Placement invalid = f.plan.placement();
  invalid.set(0, static_cast<DeviceKind>(kNumDeviceKinds + 3));
  const VerifyResult r = run_with(invalid);
  expect_once(r, "placement-device", "placement-size");
  expect_once(r, "placement-consistency", "plan-size");
}

// A partition corruption is the partition validator's finding alone; the
// plan validator, which reads the same ownership, does not repeat it.
TEST(LintSuite, CorruptedPartitionIsReportedOnce) {
  PlanFixture f;
  Partition partition = f.plan.partition();
  ASSERT_GE(partition.subgraphs.size(), 2u);
  ASSERT_FALSE(partition.subgraphs[0].parent_nodes.empty());
  partition.subgraphs[1].parent_nodes.push_back(
      partition.subgraphs[0].parent_nodes.front());
  const PlanView view{f.plan.parent(),    partition,
                      f.plan.placement(), f.plan.subgraphs(),
                      f.plan.consumers(), f.plan.transfers(),
                      f.plan.step_order()};
  const VerifyResult r = lint::LintSuite::standard().run(
      lint::LintInput{view, f.plan.memory_plan(), nullptr});
  size_t overlaps = 0;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule != "partition-overlap") continue;
    ++overlaps;
    EXPECT_EQ(d.context, "partition-coverage") << d.to_string();
  }
  EXPECT_EQ(overlaps, 1u) << r.to_string();
}

// --- boundary-type --------------------------------------------------------------

TEST(LintPasses, BoundaryTypeCatchesMutatedOutputShape) {
  PlanFixture f;
  std::vector<PlannedSubgraph> subs = f.plan.subgraphs();
  ASSERT_FALSE(subs.empty());
  Graph cg = subs[0].compiled.graph();
  ASSERT_FALSE(cg.outputs().empty());
  cg.mutable_node(cg.outputs()[0]).out_shape = Shape{3, 3};
  subs[0].compiled = CompiledSubgraph(std::move(cg), subs[0].device,
                                      subs[0].compiled.options(),
                                      subs[0].compiled.kernels());
  const VerifyResult r =
      lint::boundary_type(f.input_with_subgraphs(subs));
  EXPECT_TRUE(r.has_error("boundary-type")) << r.to_string();
}

TEST(LintPasses, BoundaryTypeCatchesMutatedPlaceholder) {
  PlanFixture f;
  std::vector<PlannedSubgraph> subs = f.plan.subgraphs();
  // Find a subgraph with a feed and corrupt the placeholder's shape.
  for (PlannedSubgraph& ps : subs) {
    if (ps.feeds.empty()) continue;
    Graph cg = ps.compiled.graph();
    cg.mutable_node(ps.feeds[0].input_node).out_shape = Shape{7};
    ps.compiled = CompiledSubgraph(std::move(cg), ps.device,
                                   ps.compiled.options(),
                                   ps.compiled.kernels());
    const VerifyResult r =
        lint::boundary_type(f.input_with_subgraphs(subs));
    EXPECT_TRUE(r.has_error("boundary-type")) << r.to_string();
    return;
  }
  FAIL() << "fixture has no subgraph with feeds";
}

// --- sync-elision ---------------------------------------------------------------

TEST(LintPasses, SyncElisionCatchesElidedTransfer) {
  PlanFixture f;
  ASSERT_FALSE(f.plan.transfers().empty());
  // All staging edges gone: every cross-device read is now unsynchronized.
  const VerifyResult r =
      lint::sync_elision(f.input_with_transfers({}));
  EXPECT_TRUE(r.has_error("sync-elision")) << r.to_string();
}

TEST(LintPasses, SyncElisionAcceptsCleanPlan) {
  PlanFixture f;
  const VerifyResult r = lint::sync_elision(f.input());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.diagnostics().size(), 0u);
}

// --- redundant-transfer ---------------------------------------------------------

TEST(LintPasses, RedundantTransferCatchesDoubleShipment) {
  PlanFixture f;
  std::vector<TransferStep> transfers = f.plan.transfers();
  ASSERT_FALSE(transfers.empty());
  transfers.push_back(transfers.front());  // same value, same destination
  const VerifyResult r =
      lint::redundant_transfer(f.input_with_transfers(transfers));
  ASSERT_TRUE(has_rule(r, "redundant-transfer")) << r.to_string();
  // An optimization opportunity, not a correctness bug: warning severity.
  EXPECT_EQ(r.error_count(), 0u);
  EXPECT_GE(r.warning_count(), 1u);
}

// --- dead-subgraph / unreachable-step -------------------------------------------

TEST(LintPasses, DeadSubgraphCatchesOrphanedSink) {
  PlanFixture f;
  std::vector<PlannedSubgraph> subs = f.plan.subgraphs();
  const std::set<NodeId> outputs(f.graph.outputs().begin(),
                                 f.graph.outputs().end());
  // Detach every subgraph from the graph outputs: nothing reaches them.
  for (PlannedSubgraph& ps : subs) {
    ps.produces.erase(
        std::remove_if(ps.produces.begin(), ps.produces.end(),
                       [&](NodeId v) { return outputs.count(v) != 0; }),
        ps.produces.end());
  }
  const VerifyResult r =
      lint::dead_subgraph(f.input_with_subgraphs(subs));
  EXPECT_TRUE(has_rule(r, "dead-subgraph")) << r.to_string();
  EXPECT_TRUE(has_rule(r, "unreachable-step")) << r.to_string();
  // Step findings carry their launch-order position.
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == "unreachable-step") {
      EXPECT_GE(d.location.step, 0);
    }
  }
}

TEST(LintPasses, DeadSubgraphAcceptsCleanPlan) {
  PlanFixture f;
  const VerifyResult r = lint::dead_subgraph(f.input());
  EXPECT_EQ(r.diagnostics().size(), 0u) << r.to_string();
}

// --- swap-slot-size / swap-arena-alias ------------------------------------------

TEST(LintPasses, SwapAuditIsSilentWithoutPreviousPlan) {
  PlanFixture f;
  const VerifyResult r = lint::swap_arena_alias(f.input());
  EXPECT_EQ(r.diagnostics().size(), 0u) << r.to_string();
  EXPECT_EQ(lint::swap_slot_size(f.input()).diagnostics().size(), 0u);
}

TEST(LintPasses, SwapSlotSizeCatchesResizedValue) {
  PlanFixture f;
  ASSERT_NE(f.plan.memory_plan(), nullptr);
  // The retired arena holds one value at a different size than the
  // swapped-in plan assigns — one of the two layouts is corrupt.
  MemoryPlan retired;
  bool mutated = false;
  for (ArenaSlot slot : f.plan.memory_plan()->slots()) {
    if (!mutated) {
      slot.bytes += 64;
      mutated = true;
    }
    retired.add_slot(slot);
  }
  ASSERT_TRUE(mutated);
  lint::LintInput input = f.input();
  input.previous_memory = &retired;
  const VerifyResult r = lint::swap_slot_size(input);
  EXPECT_TRUE(r.has_error("swap-slot-size")) << r.to_string();
}

TEST(LintPasses, SwapAliasReportsOverlapWithRetiredArena) {
  PlanFixture f;
  ASSERT_NE(f.plan.memory_plan(), nullptr);
  // The plan swapped with itself: every held-to-end slot trivially aliases
  // its own range, so the audit must report (as a warning, not an error —
  // executors give each plan its own arena).
  lint::LintInput input = f.input();
  input.previous_memory = f.plan.memory_plan();
  const VerifyResult r = lint::swap_arena_alias(input);
  EXPECT_TRUE(has_rule(r, "swap-arena-alias")) << r.to_string();
  EXPECT_EQ(r.error_count(), 0u) << r.to_string();
}

// --- telemetry-unbounded-series -------------------------------------------------

TEST(LintPasses, UnboundedSeriesCatchesPerRequestMetricFamilies) {
  PlanFixture f;
  // The pass audits process registry state, not the plan: before the bug is
  // committed, the rule must stay silent.
  const VerifyResult clean = lint::telemetry_unbounded_series(f.input());
  EXPECT_FALSE(has_rule(clean, "telemetry-unbounded-series"))
      << clean.to_string();

  // The classic instrumentation bug: one metric family instantiated per
  // request id. Registration alone (no recording) is the leak.
  for (int i = 0; i < 4; ++i) {
    telemetry::counter("lint_test.request." + std::to_string(i) +
                       ".latency_us");
  }
  const VerifyResult r = lint::telemetry_unbounded_series(f.input());
  ASSERT_TRUE(has_rule(r, "telemetry-unbounded-series")) << r.to_string();
  // Hygiene advice, not a correctness bug: warning severity.
  EXPECT_EQ(r.error_count(), 0u);
  EXPECT_GE(r.warning_count(), 1u);
  bool names_template = false;
  for (const Diagnostic& d : r.diagnostics()) {
    names_template |= d.message.find("lint_test.request.<id>.latency_us") !=
                      std::string::npos;
  }
  EXPECT_TRUE(names_template)
      << "the finding must name the collapsed family template";
}

TEST(LintPasses, UnboundedSeriesIgnoresFewInstantiations) {
  PlanFixture f;
  // Three instantiations sit under the threshold: a handful of fixed shards
  // is legitimate, only unbounded growth is the smell.
  for (int i = 0; i < 3; ++i) {
    telemetry::counter("lint_test.shard." + std::to_string(i) + ".ops");
  }
  const VerifyResult r = lint::telemetry_unbounded_series(f.input());
  for (const Diagnostic& d : r.diagnostics()) {
    EXPECT_EQ(d.message.find("lint_test.shard"), std::string::npos)
        << d.to_string();
  }
}

// --- rule catalogue -------------------------------------------------------------

TEST(RuleCatalogue, IdsAreUniqueAndResolvable) {
  std::set<std::string> seen;
  for (const lint::RuleInfo& rule : lint::rule_catalogue()) {
    EXPECT_TRUE(seen.insert(rule.id).second) << "duplicate rule id " << rule.id;
    EXPECT_EQ(lint::find_rule(rule.id), &rule);
    EXPECT_NE(rule.summary[0], '\0');
    EXPECT_NE(rule.anchor_file[0], '\0');
  }
  EXPECT_EQ(lint::find_rule("no-such-rule"), nullptr);
}

TEST(RuleCatalogue, CoversEveryEmittedRule) {
  // Every rule the checks can emit must resolve (SARIF ruleIndex stability).
  // The standard table names each check's primary rule; the secondary rules
  // and the model checker's rules, which the table cannot enumerate, are
  // listed by hand.
  std::set<std::string> ids;
  for (const lint::Check& check : lint::standard_checks()) {
    EXPECT_TRUE(ids.insert(check.id).second) << "duplicate check " << check.id;
    EXPECT_NE(lint::find_rule(check.id), nullptr) << check.id;
  }
  for (const char* rule :
       {"unreachable-step", "unbounded-dim",
        "mc-conservation", "mc-queue-accounting", "mc-lost-wakeup",
        "mc-snapshot-retired", "mc-depth-bound", "mc-drain-quiescence"}) {
    EXPECT_NE(lint::find_rule(rule), nullptr) << rule;
  }
}

TEST(RuleCatalogue, AppendOnlyTailKeepsSarifRuleIndicesStable) {
  // The catalogue is append-only: consumers key dashboards on SARIF
  // ruleIndex, so a new rule may only be added at the end. Pin the tail.
  const std::vector<lint::RuleInfo>& rules = lint::rule_catalogue();
  ASSERT_FALSE(rules.empty());
  EXPECT_EQ(std::string(rules.back().id), "mc-drain-quiescence");
  EXPECT_EQ(rules.back().severity, Diagnostic::Severity::kError);
  // Indices of long-standing rules must not have shifted.
  const auto index_of = [&rules](const std::string& id) {
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (id == rules[i].id) return i;
    }
    ADD_FAILURE() << "rule not in catalogue: " << id;
    return rules.size();
  };
  EXPECT_LT(index_of("boundary-type"), index_of("mc-conservation"));
  EXPECT_LT(index_of("mc-depth-bound"), index_of("telemetry-unbounded-series"));
  EXPECT_LT(index_of("telemetry-unbounded-series"),
            index_of("mc-drain-quiescence"));
}

// --- SARIF ----------------------------------------------------------------------

TEST(Sarif, EmptyRunIsValidJson) {
  const std::string sarif = lint::to_sarif({});
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(sarif, &err)) << err;
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"results\":[]"), std::string::npos);
  EXPECT_NE(sarif.find("duet-lint"), std::string::npos);
}

TEST(Sarif, ResultCarriesRuleIndexLevelAndLocations) {
  Diagnostic d;
  d.severity = Diagnostic::Severity::kWarning;
  d.rule = "redundant-transfer";
  d.node = 7;
  d.subgraph = 2;
  d.context = "redundant-transfer";
  d.message = "value shipped twice";
  d.location.artifact = "wide-deep";
  const std::string sarif = lint::to_sarif({d});
  std::string err;
  ASSERT_TRUE(telemetry::validate_json(sarif, &err)) << err;
  EXPECT_NE(sarif.find("\"ruleId\":\"redundant-transfer\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
  // No explicit file on the diagnostic: anchors to the catalogue file.
  EXPECT_NE(sarif.find(lint::find_rule("redundant-transfer")->anchor_file),
            std::string::npos);
  EXPECT_NE(sarif.find("wide-deep/subgraph#2/node%7"), std::string::npos);
}

TEST(Sarif, RuleIndexMatchesCataloguePosition) {
  Diagnostic d;
  d.rule = lint::rule_catalogue().front().id;
  d.message = "x";
  const std::string sarif = lint::to_sarif({d});
  EXPECT_NE(sarif.find("\"ruleIndex\":0"), std::string::npos) << sarif;
}

TEST(Sarif, UnknownRuleOmitsRuleIndex) {
  Diagnostic d;
  d.rule = "not-in-catalogue";
  d.message = "x";
  const std::string sarif = lint::to_sarif({d});
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(sarif, &err)) << err;
  EXPECT_EQ(sarif.find("\"ruleIndex\""), std::string::npos);
}

TEST(Sarif, EscapesMessageContent) {
  Diagnostic d;
  d.rule = "boundary-type";
  d.message = "shape \"weird\"\nnewline";
  const std::string sarif = lint::to_sarif({d});
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(sarif, &err)) << err;
}

// --- diagnostics plumbing -------------------------------------------------------

TEST(Diagnostics, SortOrdersErrorsFirstThenRule) {
  VerifyResult r;
  Diagnostic w;
  w.severity = Diagnostic::Severity::kWarning;
  w.rule = "a-warning";
  w.message = "w";
  Diagnostic e;
  e.severity = Diagnostic::Severity::kError;
  e.rule = "z-error";
  e.message = "e";
  r.add(w);
  r.add(e);
  r.sort();
  ASSERT_EQ(r.diagnostics().size(), 2u);
  EXPECT_EQ(r.diagnostics()[0].rule, "z-error");
  EXPECT_EQ(r.diagnostics()[1].rule, "a-warning");
}

TEST(Diagnostics, SetArtifactOnlyFillsEmpty) {
  VerifyResult r;
  Diagnostic d;
  d.rule = "x";
  d.location.artifact = "already-set";
  r.add(d);
  r.error("y", kInvalidNode, "msg");
  r.set_artifact("model");
  EXPECT_EQ(r.diagnostics()[0].location.artifact, "already-set");
  EXPECT_EQ(r.diagnostics()[1].location.artifact, "model");
}

TEST(Diagnostics, ToStringIncludesStepAndArtifact) {
  Diagnostic d;
  d.severity = Diagnostic::Severity::kWarning;
  d.rule = "unreachable-step";
  d.subgraph = 3;
  d.location.step = 5;
  d.location.artifact = "resnet18";
  d.message = "dead";
  const std::string s = d.to_string();
  EXPECT_NE(s.find("step 5"), std::string::npos) << s;
  EXPECT_NE(s.find("[resnet18]"), std::string::npos) << s;
}

}  // namespace
}  // namespace duet
