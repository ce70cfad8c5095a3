#include "analysis/model_check/explorer.hpp"

#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "analysis/lint/rules.hpp"

namespace duet::mc {
namespace {

// Transition identity for sleep masks: (thread, branch) with branch < 2.
uint32_t transition_bit(const Step& t) {
  return 1u << (static_cast<uint32_t>(t.thread) * 2u +
                static_cast<uint32_t>(t.branch));
}

bool independent(const Step& a, const Step& b) {
  if (a.thread == b.thread) return false;
  return (a.writes & (b.reads | b.writes)) == 0 &&
         (b.writes & (a.reads | a.writes)) == 0;
}

class Explorer {
 public:
  Explorer(const Protocol& protocol, const ExploreOptions& options)
      : protocol_(protocol), options_(options) {}

  ExploreResult run() {
    ProtocolState init = protocol_.initial();
    path_.clear();
    dfs(init, 0, 0);
    finish();
    return std::move(result_);
  }

 private:
  void record(const std::vector<Violation>& violations) {
    for (const Violation& v : violations) {
      auto [it, fresh] = first_by_rule_.emplace(v.rule, v.message);
      ++violation_counts_[v.rule];
      if (fresh && result_.counterexamples.size() <
                       options_.max_counterexamples) {
        std::ostringstream trace;
        trace << v.rule << ": ";
        for (size_t i = 0; i < path_.size(); ++i) {
          if (i != 0) trace << " -> ";
          trace << path_[i];
        }
        result_.counterexamples.push_back(trace.str());
      }
    }
  }

  void dfs(const ProtocolState& state, int depth, uint32_t sleep) {
    if (result_.states_visited >= options_.max_states) {
      result_.exhausted = false;
      return;
    }
    // Godefroid's cache-compatible sleep sets: a state stores the
    // intersection of the sleep sets it was reached with; revisiting with a
    // smaller sleep set re-explores exactly the newly-awake transitions.
    uint32_t awake_mask;
    const std::string key = state.encode();
    const auto it = visited_.find(key);
    if (it == visited_.end()) {
      visited_.emplace(key, sleep);
      ++result_.states_visited;
      awake_mask = ~sleep;
    } else {
      if ((it->second & ~sleep) == 0) return;  // nothing new to wake
      awake_mask = it->second & ~sleep;
      it->second &= sleep;
    }
    if (depth > result_.max_depth_seen) result_.max_depth_seen = depth;

    const bool at_bound = depth >= options_.max_depth;
    std::vector<Step> steps = protocol_.steps(state, [&](const Step& t) {
      return !at_bound &&
             (!options_.sleep_sets || (transition_bit(t) & awake_mask) != 0);
    });
    if (steps.empty()) {
      std::vector<Violation> violations;
      protocol_.check_final(state, &violations);
      record(violations);
      return;
    }
    if (at_bound) {
      result_.exhausted = false;
      return;
    }

    uint32_t explored = 0;  // siblings already expanded from this state
    for (Step& t : steps) {
      if (!t.next) continue;  // asleep
      ++result_.transitions_executed;
      path_.push_back(t.label);
      record(t.violations);

      uint32_t child_sleep = 0;
      if (options_.sleep_sets) {
        // A slept transition is always still enabled (independence preserves
        // enabledness), so scanning the enabled set finds every candidate;
        // dropping a bit we cannot match is sound — just less pruning.
        const uint32_t candidates = (sleep | explored) & ~transition_bit(t);
        for (const Step& u : steps) {
          if ((candidates & transition_bit(u)) != 0 && independent(t, u)) {
            child_sleep |= transition_bit(u);
          }
        }
      }
      dfs(*t.next, depth + 1, child_sleep);
      path_.pop_back();
      explored |= transition_bit(t);
    }
  }

  void finish() {
    VerifyResult& findings = result_.findings;
    for (const auto& [rule, message] : first_by_rule_) {
      const uint64_t count = violation_counts_[rule];
      findings.add(lint::finding(
          rule, kInvalidNode, -1,
          count > 1 ? message + " (+" + std::to_string(count - 1) + " more)"
                    : message));
    }
    if (!result_.exhausted) {
      findings.add(lint::finding(
          "mc-depth-bound", kInvalidNode, -1,
          "exploration truncated at depth " +
              std::to_string(options_.max_depth) + " / " +
              std::to_string(options_.max_states) +
              " states; invariants hold only for the explored prefix"));
    }
    findings.attribute("model-check");
    findings.set_artifact(std::string("serve-protocol:") +
                          variant_name(protocol_.config().variant));
    findings.sort();
    result_.ok = findings.error_count() == 0;
  }

  const Protocol& protocol_;
  const ExploreOptions& options_;
  ExploreResult result_;
  std::unordered_map<std::string, uint32_t> visited_;
  std::vector<std::string> path_;
  std::map<std::string, std::string> first_by_rule_;
  std::map<std::string, uint64_t> violation_counts_;
};

}  // namespace

std::string ExploreResult::summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAIL") << ": " << states_visited << " states, "
     << transitions_executed << " transitions, max depth " << max_depth_seen
     << (exhausted ? ", exhaustive" : ", TRUNCATED");
  if (!findings.diagnostics().empty()) {
    os << ", " << findings.error_count() << " violation(s)";
  }
  return os.str();
}

ExploreResult explore(const ProtocolConfig& config,
                      const ExploreOptions& options) {
  const Protocol protocol(config);
  Explorer explorer(protocol, options);
  return explorer.run();
}

}  // namespace duet::mc
