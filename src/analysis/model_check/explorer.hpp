#pragma once

// Small-scope exhaustive interleaving explorer: bounded DFS over the
// serve-protocol driver of the real request lifecycle
// (model_check/protocol.hpp) with visited-state caching and sleep-set pruning (Godefroid) — two
// enabled transitions whose shared-variable footprints do not conflict are
// independent, and only one order of each independent pair is explored.
//
// Violations surface as structured Diagnostics under the mc-* rules of the
// lint catalogue, one per violated rule with the first counterexample trace
// attached, so `duet_cli lint` and the SARIF export treat proven protocol
// bugs exactly like plan lint findings.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/model_check/protocol.hpp"

namespace duet::mc {

struct ExploreOptions {
  int max_depth = 96;           // transitions along one interleaving
  uint64_t max_states = 2'000'000;  // distinct states before giving up
  bool sleep_sets = true;       // disable to measure the pruning
  size_t max_counterexamples = 8;
};

struct ExploreResult {
  bool ok = true;         // no error-severity findings
  bool exhausted = true;  // the bounded space was fully explored
  uint64_t states_visited = 0;
  uint64_t transitions_executed = 0;
  int max_depth_seen = 0;

  // One diagnostic per violated rule (error), plus an mc-depth-bound
  // warning when the exploration was truncated.
  VerifyResult findings;
  // "rule: t1 -> t2 -> ..." for the first few violations.
  std::vector<std::string> counterexamples;

  std::string summary() const;
};

ExploreResult explore(const ProtocolConfig& config,
                      const ExploreOptions& options = {});

}  // namespace duet::mc
