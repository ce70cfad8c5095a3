#pragma once

// Small-scope abstraction of the serving runtime's concurrency protocol
// (ISSUE 6 tentpole, part 2). The shipped protocol is FleetServer's
// (serve/fleet.cpp): submit() admits into the bounded FleetQueue
// (serve/fleet_policy.cpp — push accepts iff it enqueued, refuses at
// capacity), workers block on the queue condition variable and pick
// (shed an expired request, or snapshot the model's plan and run it),
// ResidentModel::apply_placement publishes a new plan snapshot
// (serve/model_registry.cpp) while executions holding the old one finish
// on it, and drain() stops admission and waits for every accepted request
// to resolve. The abstraction models a single-model server (one tenant,
// max_batch 1, so a pick takes the queue head) as a handful of
// interleavable atomic steps per thread, small enough for exhaustive
// exploration:
//
//   producers  submit(): offered++  ->  push -> accepted++/rejected++
//   consumers  worker_loop(): pick -> shed | (snapshot plan, run, release)
//   swapper    apply_placement(): version++ ; retire old once unreferenced
//   closer     drain(): stop admission at any point (races with submits)
//
// The explorer (model_check/explorer.hpp) drives this machine through every
// interleaving (bounded, sleep-set pruned) and checks four invariants:
//
//   mc-conservation     offered == completed + shed + rejected at quiescence
//   mc-queue-accounting accepted == enqueued == dequeued + queue length,
//                       length never exceeds capacity (push refuses at
//                       capacity or while draining, never drops)
//   mc-lost-wakeup      no thread blocks forever across drain/shutdown
//   mc-snapshot-retired no worker runs a plan retired by swap + grace
//
// Variants other than kCorrect re-introduce one known-bad implementation
// each; the negative tests prove the checker finds all of them.

#include <cstdint>
#include <string>
#include <vector>

namespace duet::mc {

enum class Variant : uint8_t {
  kCorrect = 0,
  // offered++ as separate load and store — the lost-update bug an atomic
  // fetch_add exists to prevent. Breaks conservation.
  kNonAtomicCounter,
  // push reports accepted on a full queue without enqueueing — the
  // caller's request silently vanishes. Breaks queue accounting.
  kSilentDropOnFull,
  // the worker's wait predicate ignores draining — a consumer that finds
  // the queue empty after drain() sleeps forever. Breaks drain/shutdown.
  kMissedCloseWakeup,
  // A worker snapshots the plan without taking a reference — the swapper's
  // grace period sees no holders and retires the plan under the worker.
  kUnrefSnapshot,
};

const char* variant_name(Variant v);

struct ProtocolConfig {
  int producers = 2;
  int consumers = 2;
  int requests_per_producer = 2;
  int queue_capacity = 2;
  int swaps = 1;
  Variant variant = Variant::kCorrect;
};

// Flat, byte-encodable global state. Thread locals: producers use `a` for
// remaining requests and `b` for the non-atomic load; consumers use `a` for
// the held plan version; the swapper uses `a` for remaining swaps and `b`
// for the version being retired.
struct ProtocolState {
  uint8_t queue_len = 0;
  uint8_t closed = 0;
  uint8_t offered = 0;
  uint8_t accepted = 0;
  uint8_t rejected = 0;
  uint8_t shed = 0;
  uint8_t completed = 0;
  uint8_t enqueued = 0;   // ghost: successful push count
  uint8_t dequeued = 0;   // ghost: successful pop count
  uint8_t version = 0;    // current plan version
  uint8_t retired = 0;    // bitmask over versions
  std::vector<uint8_t> refs;  // per-version snapshot holders

  struct Thread {
    uint8_t pc = 0;  // kDone once terminated
    uint8_t a = 0;
    uint8_t b = 0;
  };
  std::vector<Thread> threads;

  static constexpr uint8_t kDone = 0xFF;

  std::string encode() const;  // hashable byte string
};

// One interleavable step of one thread. `branch` disambiguates
// nondeterministic choices (a consumer at the shed decision has two).
// `reads`/`writes` are shared-variable bitmasks for the independence
// relation behind sleep-set pruning.
struct Transition {
  int thread = -1;
  int branch = 0;
  uint32_t reads = 0;
  uint32_t writes = 0;
  std::string label;  // e.g. "p0.push", "c1.run", "swap.retire"
};

struct Violation {
  std::string rule;  // mc-conservation / mc-queue-accounting / ...
  std::string message;
};

class Protocol {
 public:
  explicit Protocol(ProtocolConfig config);

  const ProtocolConfig& config() const { return config_; }
  int num_threads() const;

  ProtocolState initial() const;
  std::vector<Transition> enabled(const ProtocolState& s) const;

  // Applies `t` (must be enabled in `s`) and appends any invariant
  // violations observable at this step to `violations`.
  ProtocolState apply(const ProtocolState& s, const Transition& t,
                      std::vector<Violation>* violations) const;

  bool all_terminated(const ProtocolState& s) const;
  // Quiescence checks (conservation identity).
  void check_terminal(const ProtocolState& s,
                      std::vector<Violation>* violations) const;
  // Human-readable list of the threads stuck in a deadlocked state.
  std::string describe_blocked(const ProtocolState& s) const;

 private:
  ProtocolConfig config_;
};

}  // namespace duet::mc
