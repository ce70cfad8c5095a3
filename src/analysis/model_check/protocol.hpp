#pragma once

// The serve-protocol model checker's driver of the real request lifecycle
// (serve/lifecycle.hpp): the calls FleetServer makes, from abstract
// threads, one atomic step per queue-mutex section or side effect, so the
// explorer (model_check/explorer.hpp) can run every interleaving of a small
// scope. Producers submit (on_arrival). Workers wait on Lifecycle::wake(),
// pick on time or late (a late pick sheds every deadlined request), settle
// each shed request, snapshot the plan, run (on_complete kOk, or kFailed
// when it throws) and settle each member; settling is the request's side
// effects, then on_resolve. The swapper publishes plan versions and
// retires the old one once no worker holds it (ResidentModel state, kept
// here). The closer drains: close, then wait for quiescent().
//
// Invariants, by catalogue rule (analysis/lint/rules.cpp):
//   mc-conservation      per tenant, offered == completed + shed + rejected
//                        + failed once every thread has finished
//   mc-queue-accounting  accepted == picked + queued within capacity, and
//                        every waiting caller holds one in-flight request
//   mc-lost-wakeup       no thread blocks forever
//   mc-snapshot-retired  no worker runs a plan retired by swap + grace
//   mc-drain-quiescence  when drain()'s wait is satisfied, every accepted
//                        request's counts and side effects are settled
//
// Variants other than kCorrect mutate this driver (skip a call, reorder
// two calls or ignore a return), never the lifecycle.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/lifecycle.hpp"

namespace duet::mc {

enum class Variant : uint8_t {
  kCorrect = 0,
  // Ignores on_arrival's return: a refused request is handed a future that
  // nothing will resolve, so it silently vanishes. Breaks queue accounting.
  kSilentDropOnFull,
  // Workers wait for work alone instead of on wake(): a worker waiting on
  // an empty queue never sees the close. Breaks drain/shutdown.
  kMissedCloseWakeup,
  // A worker snapshots the plan without taking a reference, so the swapper
  // retires the plan under it.
  kUnrefSnapshot,
  // Resolves each request before its side effects: drain() can return
  // with effects still pending. Breaks drain quiescence.
  kResolveBeforeSideEffects,
  // A failed execution skips on_complete: its members resolve uncounted.
  // Breaks conservation.
  kUncountedFailure,
};

const char* variant_name(Variant v);

struct ProtocolConfig {
  int producers = 2;
  int workers = 2;
  // Producer p submits to tenant p mod tenants.size().
  int requests_per_producer = 2;
  // The lifecycle's scope. The default tenant's 1 s deadline lets a late
  // pick shed.
  std::vector<serve::TenantClass> tenants = {{"default", 1.0, 1.0}};
  size_t queue_capacity = 2;
  int64_t max_batch = 1;
  int swaps = 1;
  Variant variant = Variant::kCorrect;
};

struct ProtocolState {
  explicit ProtocolState(serve::Lifecycle lifecycle)
      : life(std::move(lifecycle)) {}

  serve::Lifecycle life;
  uint8_t effects = 0;   // ghost: requests whose side effects ran
  uint8_t awaiting = 0;  // ghost: callers waiting on a queued request
  uint8_t picked = 0;    // ghost: requests on_pick returned
  uint8_t version = 0;   // current plan version
  uint8_t retired = 0;   // bitmask over versions
  std::vector<uint8_t> refs;  // per-version snapshot holders

  // Producers: `a` = requests left. Workers: `a` = held plan version, `b` =
  // requests left to settle, `batch` = the picked batch until it runs.
  // Swapper: `a` = swaps left, `b` = the version being retired.
  struct Thread {
    uint8_t pc = 0;  // kDone once terminated
    uint8_t a = 0;
    uint8_t b = 0;
    std::vector<serve::FleetRequest> batch;
  };
  std::vector<Thread> threads;

  static constexpr uint8_t kDone = 0xFF;

  std::string encode() const;  // hashable byte string
};

struct Violation {
  std::string rule;  // mc-conservation / mc-queue-accounting / ...
  std::string message;
};

// One enabled step of one thread. `branch` tells nondeterministic choices
// apart (an on-time or a late pick; a run that succeeds or throws).
// `reads`/`writes` are shared-variable bitmasks for the independence
// relation behind sleep-set pruning. Taken steps carry a label (e.g.
// "w1.run-fails"), the successor state and the violations seen taking it.
struct Step {
  int thread = -1;
  int branch = 0;
  uint32_t reads = 0;
  uint32_t writes = 0;
  std::string label;
  std::optional<ProtocolState> next;
  std::vector<Violation> violations;
};

class Protocol {
 public:
  explicit Protocol(ProtocolConfig config);

  const ProtocolConfig& config() const { return config_; }
  ProtocolState initial() const;

  // Every step enabled in `s`; only those `take` accepts are taken.
  std::vector<Step> steps(const ProtocolState& s,
                          const std::function<bool(const Step&)>& take) const;

  // `s` has no enabled step: a deadlock (mc-lost-wakeup) unless every
  // thread finished, when conservation is checked.
  void check_final(const ProtocolState& s,
                   std::vector<Violation>* violations) const;

 private:
  std::string label(int thread) const;

  ProtocolConfig config_;
  bool deadlines_ = false;  // some tenant sheds: a late pick differs
};

}  // namespace duet::mc
