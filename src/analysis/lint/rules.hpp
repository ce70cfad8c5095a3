#pragma once

// Rule catalogue for the unified static-analysis suite (ISSUE 6): every
// stable rule id emitted anywhere in src/analysis — the graph verifier, the
// partition/placement/plan validators, the happens-before race checker, the
// lint passes, and the serve-protocol model checker — with its default
// severity, a one-line summary of what it proves, and the repo file findings
// anchor to when a diagnostic carries no location of its own. The SARIF
// exporter (analysis/lint/sarif.hpp) publishes this table as
// tool.driver.rules, so ruleIndex values are stable across runs as long as
// rules are only ever appended.

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"

namespace duet::lint {

struct RuleInfo {
  const char* id;  // stable kebab-case rule id (== Diagnostic::rule, SARIF ruleId)
  Diagnostic::Severity severity;
  const char* summary;      // what the rule proves when it does not fire
  const char* anchor_file;  // repo-relative fallback location for findings
};

// Append-only. Index into this vector is the SARIF ruleIndex.
const std::vector<RuleInfo>& rule_catalogue();

// nullptr for an unknown id (SARIF then emits the result without ruleIndex).
const RuleInfo* find_rule(const std::string& id);

// A finding under a catalogued rule, at the rule's catalogue severity — the
// one place a checker's severity is declared. Throws Error for an unknown id.
Diagnostic finding(std::string rule, NodeId node, int subgraph,
                   std::string message);

}  // namespace duet::lint
