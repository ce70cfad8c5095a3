#include "analysis/lint/rules.hpp"

#include <map>

namespace duet::lint {
namespace {

constexpr Diagnostic::Severity kError = Diagnostic::Severity::kError;
constexpr Diagnostic::Severity kWarning = Diagnostic::Severity::kWarning;

std::vector<RuleInfo> build_catalogue() {
  return {
      // --- graph verifier (analysis/graph_verifier.cpp) ---------------------
      {"dense-ids", kError, "node ids are dense indices into the node table",
       "src/graph/graph.hpp"},
      {"dangling-input", kError, "every input id names an existing node",
       "src/graph/graph.hpp"},
      {"acyclicity", kError, "every input id precedes the node (graph is a DAG)",
       "src/graph/graph.hpp"},
      {"arity", kError, "positional input count matches the per-op contract",
       "src/analysis/graph_verifier.cpp"},
      {"consumer-index", kError,
       "consumer adjacency is the exact multiset inverse of the input lists",
       "src/graph/graph.hpp"},
      {"terminal-value", kError,
       "constants and pre-bound inputs carry a tensor matching their type",
       "src/graph/graph.hpp"},
      {"shape-infer", kError, "shape inference succeeds on every compute node",
       "src/graph/shape_inference.cpp"},
      {"type-consistency", kError,
       "recorded out_shape/out_dtype equals the re-derived one",
       "src/graph/shape_inference.cpp"},
      {"outputs", kError, "the graph has outputs referencing existing nodes",
       "src/graph/graph.hpp"},
      {"unique-names", kError, "node names are unique (error for inputs)",
       "src/graph/graph.hpp"},
      // --- partition validator (analysis/plan_validator.cpp) ----------------
      {"partition-coverage", kError,
       "every live compute node is owned by a subgraph",
       "src/partition/partitioner.cpp"},
      {"partition-overlap", kError, "no parent node is owned by two subgraphs",
       "src/partition/partitioner.cpp"},
      {"phase-membership", kError,
       "every subgraph sits in exactly one phase and back-references agree",
       "src/partition/partitioner.cpp"},
      {"boundary-producer", kError,
       "boundary inputs name valid parent producers outside the subgraph",
       "src/partition/subgraph.cpp"},
      {"phase-order", kError,
       "compute dependencies come from strictly earlier phases",
       "src/partition/partitioner.cpp"},
      // --- placement validator ----------------------------------------------
      {"placement-size", kError,
       "the placement covers exactly the partition's subgraphs",
       "src/sched/placement.cpp"},
      {"placement-device", kError, "every assigned device kind is valid",
       "src/sched/placement.cpp"},
      // --- plan validator -----------------------------------------------------
      {"plan-size", kError, "planned subgraph ids are dense and match the partition",
       "src/runtime/plan.cpp"},
      {"placement-consistency", kError,
       "each subgraph was compiled for the device the placement assigns",
       "src/runtime/plan.cpp"},
      {"feed-def", kError,
       "every feed names an existing parent node with a producing subgraph",
       "src/runtime/plan.cpp"},
      {"use-before-def", kError,
       "every consumed value's producer is a declared dependency",
       "src/runtime/plan.cpp"},
      {"dep-extraneous", kError, "every declared dependency backs a feed",
       "src/runtime/plan.cpp"},
      {"missing-transfer", kError,
       "every cross-device boundary edge has a TransferStep",
       "src/runtime/plan.cpp"},
      {"duplicate-transfer", kError, "exactly one TransferStep per edge",
       "src/runtime/plan.cpp"},
      {"same-device-transfer", kError, "no transfer for a same-device edge",
       "src/runtime/plan.cpp"},
      {"spurious-transfer", kError, "no transfer for a nonexistent edge",
       "src/runtime/plan.cpp"},
      {"step-order", kError,
       "the launch order is a dependency-respecting permutation",
       "src/runtime/plan.cpp"},
      {"consumers-inverse", kError,
       "the consumer table is the inverse of the dependency lists",
       "src/runtime/plan.cpp"},
      {"outputs-produced", kError,
       "every parent output is materialized by exactly one subgraph",
       "src/runtime/plan.cpp"},
      // --- happens-before race checker (analysis/race_checker.cpp) ---------
      {"race-read-write", kError,
       "every read of a boundary value is ordered after its write",
       "src/runtime/threaded_executor.cpp"},
      {"race-write-write", kError, "two writers of one value are ordered",
       "src/runtime/threaded_executor.cpp"},
      {"race-step-order", kError,
       "the launch order never schedules a read before its write",
       "src/runtime/threaded_executor.cpp"},
      {"race-transfer-order", kError,
       "each transfer's destination is ordered after its source",
       "src/runtime/threaded_executor.cpp"},
      {"race-slot-alias", kError,
       "arena-overlapping values have fully ordered accesses",
       "src/runtime/arena.hpp"},
      {"slot-missing", kError,
       "every boundary value has an arena slot on the devices that touch it",
       "src/runtime/memory_plan.cpp"},
      {"slot-size", kError, "each slot's byte size matches the value's tensor",
       "src/runtime/memory_plan.cpp"},
      // --- lint passes (analysis/lint/) -------------------------------------
      {"boundary-type", kError,
       "compiled subgraph boundary types match the parent graph's types",
       "src/runtime/plan.cpp"},
      {"sync-elision", kError,
       "every cross-device read is dominated by a transfer-complete edge",
       "src/runtime/plan.cpp"},
      {"redundant-transfer", kWarning,
       "no value is shipped to the same device twice without an intervening def",
       "src/runtime/plan.cpp"},
      {"dead-subgraph", kWarning,
       "every subgraph's outputs reach a graph output",
       "src/partition/partitioner.cpp"},
      {"unreachable-step", kWarning,
       "every launch-order step does work that reaches a graph output",
       "src/runtime/plan.cpp"},
      {"swap-slot-size", kError,
       "a value keeps its slot size across a recalibration plan swap",
       "src/serve/recalibration.cpp"},
      {"swap-arena-alias", kWarning,
       "retired-snapshot output slots do not alias the swapped-in plan's slots",
       "src/serve/model_registry.cpp"},
      // --- serve-protocol model checker (analysis/model_check/) ------------
      {"mc-conservation", kError,
       "at quiescence, offered == completed + shed + rejected + failed",
       "src/serve/lifecycle.cpp"},
      {"mc-queue-accounting", kError,
       "admission is accepted iff actually enqueued, and every waiting "
       "caller holds one in-flight request",
       "src/serve/lifecycle.cpp"},
      {"mc-lost-wakeup", kError,
       "no consumer blocks forever across drain/shutdown",
       "src/serve/lifecycle.hpp"},
      {"mc-snapshot-retired", kError,
       "no worker executes a plan snapshot retired by swap + grace",
       "src/serve/model_registry.cpp"},
      {"mc-depth-bound", kWarning,
       "the interleaving exploration ran to quiescence within the depth bound",
       "src/analysis/model_check/explorer.cpp"},
      // --- symbolic abstract interpretation (analysis/symbolic/) -----------
      {"symbolic-shape-contract", kWarning,
       "every op's output shape is expressible over the batch symbols",
       "src/analysis/symbolic/sym_shape_inference.cpp"},
      {"unbounded-dim", kWarning,
       "every symbolic dim has a declared, finite range",
       "src/analysis/symbolic/sym_shape_inference.cpp"},
      {"transfer-blowup", kWarning,
       "boundary transfer bytes do not outgrow subgraph flops in the batch",
       "src/analysis/symbolic/sym_cost.cpp"},
      {"memo-bitset-fallback", kWarning,
       "the plan fits the latency evaluator's 64-subgraph placement-memo "
       "bitset",
       "src/sched/latency_model.cpp"},
      {"telemetry-unbounded-series", kWarning,
       "no metric family enumerates per-entity numeric ids (unbounded label "
       "cardinality leaks registry memory and blows up scrapes)",
       "src/telemetry/metrics.cpp"},
      // Appended after the catalogue's first release: indices are SARIF
      // ruleIndex values, so new rules go last whatever their family.
      {"mc-drain-quiescence", kError,
       "when drain()'s wait is satisfied, every accepted request's counts "
       "and side effects are settled",
       "src/serve/fleet.cpp"},
  };
}

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> catalogue = build_catalogue();
  return catalogue;
}

const RuleInfo* find_rule(const std::string& id) {
  static const std::map<std::string, const RuleInfo*> index = [] {
    std::map<std::string, const RuleInfo*> m;
    for (const RuleInfo& r : rule_catalogue()) m.emplace(r.id, &r);
    return m;
  }();
  const auto it = index.find(id);
  return it == index.end() ? nullptr : it->second;
}

Diagnostic finding(std::string rule, NodeId node, int subgraph,
                   std::string message) {
  const RuleInfo* info = find_rule(rule);
  DUET_CHECK(info != nullptr) << "uncatalogued rule " << rule;
  Diagnostic d;
  d.severity = info->severity;
  d.rule = std::move(rule);
  d.node = node;
  d.subgraph = subgraph;
  d.message = std::move(message);
  return d;
}

}  // namespace duet::lint
