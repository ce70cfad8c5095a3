#pragma once

// Structured diagnostics for the static verification layer (ISSUE 1). Every
// checker in src/analysis reports violations as Diagnostic records — rule
// slug, offending node / subgraph, and the component (pass, scheduler) that
// produced the artifact — instead of throwing on the first problem. A
// VerifyResult accumulates them so a single run reports every broken
// invariant; throw_if_failed converts the batch into a VerifyError for
// callers that want fail-fast semantics (PassManager, DuetEngine).

#include <string>
#include <vector>

#include "common/error.hpp"
#include "graph/graph.hpp"

namespace duet {

// Where a finding anchors. Every checker names the artifact it inspected
// (usually the model/graph name); the repo file + line are optional — when a
// diagnostic leaves them empty, the SARIF exporter falls back to the rule
// catalogue's per-rule anchor file (analysis/lint/rules.hpp).
struct SourceLocation {
  std::string artifact;  // inspected artifact, e.g. the model name
  std::string file;      // repo-relative file, when the finding has one
  int line = 0;          // 1-based; 0 = unknown
  int step = -1;         // position in a plan's launch order, when applicable
};

struct Diagnostic {
  enum class Severity { kError, kWarning };

  Severity severity = Severity::kError;
  std::string rule;              // stable rule id, e.g. "arity", "sync-elision"
  NodeId node = kInvalidNode;    // offending graph node, when applicable
  int subgraph = -1;             // offending subgraph id, when applicable
  std::string context;           // producing component, e.g. a pass name
  std::string message;
  SourceLocation location;

  // "error[arity] node %3 (pass fusion) [wide-deep]: dense expects 2..3
  // inputs, got 1"
  std::string to_string() const;
};

const char* severity_name(Diagnostic::Severity severity);

class VerifyResult {
 public:
  void add(Diagnostic d) { diagnostics_.push_back(std::move(d)); }
  void error(std::string rule, NodeId node, std::string message);
  void error_sub(std::string rule, int subgraph, std::string message);
  void warning(std::string rule, NodeId node, std::string message);
  void merge(VerifyResult other);

  // Stamps `context` (typically the pass name) on every diagnostic that does
  // not carry one yet.
  void attribute(const std::string& context);

  // Stamps `location.artifact` (typically the model name) on every
  // diagnostic that does not carry one yet.
  void set_artifact(const std::string& artifact);

  // Deterministic order for reports: severity (errors first), then rule,
  // artifact, subgraph, node, step, message.
  void sort();

  bool ok() const { return error_count() == 0; }
  size_t error_count() const;
  size_t warning_count() const { return diagnostics_.size() - error_count(); }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  // True if any error diagnostic carries `rule`.
  bool has_error(const std::string& rule) const;

  std::string to_string() const;

  // Throws VerifyError carrying all diagnostics when any error is present.
  void throw_if_failed(const std::string& what) const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

// Error thrown by checked-mode verification; keeps the structured
// diagnostics so callers (tests, the CLI) can inspect pass/rule/node
// attribution instead of parsing the message.
class VerifyError : public Error {
 public:
  VerifyError(const std::string& what, std::vector<Diagnostic> diagnostics);
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  std::vector<Diagnostic> diagnostics_;
};

// --- checked mode -------------------------------------------------------------
// Global toggle for the expensive verification hooks (verifier after every
// pass, lint::check_plan on every built plan). On by default so tests and
// the CLI get it for free; benchmarks opt out (bench/bench_util.hpp) since
// they measure steady-state performance of already-verified pipelines.
bool verification_enabled();
void set_verification_enabled(bool enabled);

// RAII toggle for tests.
class ScopedVerification {
 public:
  explicit ScopedVerification(bool enabled)
      : previous_(verification_enabled()) {
    set_verification_enabled(enabled);
  }
  ~ScopedVerification() { set_verification_enabled(previous_); }
  ScopedVerification(const ScopedVerification&) = delete;
  ScopedVerification& operator=(const ScopedVerification&) = delete;

 private:
  bool previous_;
};

}  // namespace duet
