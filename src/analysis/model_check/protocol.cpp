#include "analysis/model_check/protocol.hpp"

#include <limits>
#include <utility>

namespace duet::mc {
namespace {

// Shared-variable bits for the independence relation. Enabledness reads are
// included in `reads` (a pick reads DRAINING, retire reads REFS, ...), which
// sleep-set soundness requires.
enum : uint32_t {
  kVarQueue = 1u << 0,     // FleetQueue contents and WFQ clocks
  kVarDraining = 1u << 1,
  kVarInflight = 1u << 2,  // in flight + the awaiting ghost
  kVarCounters = 1u << 3,  // admission counters + the picked ghost
  kVarEffects = 1u << 4,
  kVarVersion = 1u << 5,
  kVarRefs = 1u << 6,
  kVarRetired = 1u << 7,
};

// Program counters. A producer submits at pc 0 until its requests run out.
// A worker settles a request in two steps: its side effects, then
// on_resolve (the other way round under kResolveBeforeSideEffects).
enum : uint8_t { kWait = 0, kSettleFirst, kSettleSecond, kSnapshot, kRun };
enum : uint8_t { kSwapBump = 0, kSwapRetire };
enum : uint8_t { kClose = 0, kAwait };

// Service seconds billed per execution; any positive value exercises WFQ.
constexpr double kServiceS = 1.0;
// A pick at this instant finds every deadlined request expired.
constexpr double kLateS = std::numeric_limits<double>::infinity();

// Accepted requests whose outcome is counted.
uint64_t settled(const serve::AdmissionCounters& c) {
  return c.completed + c.shed + c.failed;
}

std::string describe(const serve::AdmissionCounters& c) {
  return "offered " + std::to_string(c.offered) + ", accepted " +
         std::to_string(c.accepted) + ", completed " +
         std::to_string(c.completed) + ", shed " + std::to_string(c.shed) +
         ", rejected " + std::to_string(c.rejected) + ", failed " +
         std::to_string(c.failed);
}

// After a pick, a settle or a run: settle what is left, then run the
// batch, then wait again.
uint8_t worker_next(const ProtocolState::Thread& t) {
  if (t.b > 0) return kSettleFirst;
  return t.batch.empty() ? kWait : kSnapshot;
}

}  // namespace

const char* variant_name(Variant v) {
  static const char* const kNames[] = {
      "correct",        "silent-drop-on-full",
      "missed-close-wakeup", "unref-snapshot",
      "resolve-before-side-effects", "uncounted-failure"};
  return kNames[static_cast<int>(v)];
}

std::string ProtocolState::encode() const {
  std::string out;
  life.append_state(&out);
  out += {static_cast<char>(effects), static_cast<char>(awaiting),
          static_cast<char>(picked), static_cast<char>(version),
          static_cast<char>(retired)};
  out.append(refs.begin(), refs.end());
  for (const Thread& t : threads) {
    out += {static_cast<char>(t.pc), static_cast<char>(t.a),
            static_cast<char>(t.b), static_cast<char>(t.batch.size())};
    for (const serve::FleetRequest& r : t.batch) out += static_cast<char>(r.id);
  }
  return out;
}

Protocol::Protocol(ProtocolConfig config) : config_(std::move(config)) {
  for (const serve::TenantClass& t : config_.tenants) {
    deadlines_ = deadlines_ || t.deadline_s > 0.0;
  }
}

std::string Protocol::label(int thread) const {
  const int P = config_.producers;
  const int W = config_.workers;
  if (thread < P) return "p" + std::to_string(thread);
  if (thread < P + W) return "w" + std::to_string(thread - P);
  return thread == P + W ? "swap" : "drain";
}

ProtocolState Protocol::initial() const {
  ProtocolState s(serve::Lifecycle(config_.tenants, config_.queue_capacity));
  s.refs.assign(static_cast<size_t>(config_.swaps) + 1, 0);
  // Producers, workers, the swapper and the closer.
  s.threads.resize(static_cast<size_t>(config_.producers + config_.workers) +
                   2);
  for (int p = 0; p < config_.producers; ++p) {
    s.threads[p].a = static_cast<uint8_t>(config_.requests_per_producer);
    if (s.threads[p].a == 0) s.threads[p].pc = ProtocolState::kDone;
  }
  ProtocolState::Thread& swapper = s.threads[s.threads.size() - 2];
  swapper.a = static_cast<uint8_t>(config_.swaps);
  if (swapper.a == 0) swapper.pc = ProtocolState::kDone;
  return s;
}

std::vector<Step> Protocol::steps(
    const ProtocolState& s, const std::function<bool(const Step&)>& take) const {
  std::vector<Step> out;
  out.reserve(2 * s.threads.size());  // at most two branches per thread
  // Records one enabled step of `thread` and returns the successor state
  // to build, or null when the step is not taken.
  const auto step = [&](int thread, int branch, uint32_t reads,
                        uint32_t writes, const char* op) -> ProtocolState* {
    Step& st = out.emplace_back();
    st.thread = thread;
    st.branch = branch;
    st.reads = reads;
    st.writes = writes;
    if (!take(st)) return nullptr;
    st.label = label(thread) + "." + op;
    st.next.emplace(s);
    return &*st.next;
  };
  const auto violation = [&](const char* rule, const std::string& message) {
    out.back().violations.push_back({rule, message});
  };
  const Variant variant = config_.variant;
  const int P = config_.producers;
  const int W = config_.workers;
  const int swapper = P + W;
  const int closer = P + W + 1;

  for (int p = 0; p < P; ++p) {
    if (s.threads[p].pc == ProtocolState::kDone) continue;
    ProtocolState* n =
        step(p, 0, kVarQueue | kVarDraining,
             kVarQueue | kVarCounters | kVarInflight, "submit");
    if (n == nullptr) continue;
    // One tenant's requests are interchangeable to the lifecycle (same
    // model, arrival and deadline), so they share an id: states that differ
    // only in which of them is where are one state.
    const int tenant = p % static_cast<int>(config_.tenants.size());
    const bool accepted = n->life.on_arrival(n->life.request(
        static_cast<uint64_t>(tenant), tenant, /*model=*/0, 0.0));
    if (accepted || variant == Variant::kSilentDropOnFull) ++n->awaiting;
    if (--n->threads[p].a == 0) n->threads[p].pc = ProtocolState::kDone;
  }

  const bool reordered = variant == Variant::kResolveBeforeSideEffects;
  for (int thread = P; thread < P + W; ++thread) {
    switch (s.threads[thread].pc) {
      case kWait: {
        // The queue cv's wait predicate; the seeded bug waits for work alone
        // and never sees the close.
        if (variant == Variant::kMissedCloseWakeup ? s.life.queue().empty()
                                                   : !s.life.wake()) {
          break;
        }
        const bool late_differs = deadlines_ && !s.life.queue().empty();
        for (int branch = 0; branch <= (late_differs ? 1 : 0); ++branch) {
          ProtocolState* n = step(thread, branch, kVarQueue | kVarDraining,
                                  kVarQueue | kVarCounters,
                                  branch ? "pick-late" : "pick");
          if (n == nullptr) continue;
          ProtocolState::Thread& me = n->threads[thread];
          if (n->life.queue().empty()) {
            me.pc = ProtocolState::kDone;  // drained: the worker exits
          } else {
            serve::PickResult picked =
                n->life.on_pick(branch ? kLateS : 0.0, config_.max_batch);
            n->picked = static_cast<uint8_t>(n->picked + picked.shed.size() +
                                             picked.batch.size());
            me.b = static_cast<uint8_t>(picked.shed.size());
            me.batch = std::move(picked.batch);
            me.pc = worker_next(me);
          }
        }
        break;
      }
      case kSettleFirst:
      case kSettleSecond: {
        const bool first = s.threads[thread].pc == kSettleFirst;
        const bool effects = first != reordered;
        ProtocolState* n = step(thread, 0, 0,
                                effects ? kVarEffects : kVarInflight,
                                effects ? "effects" : "resolve");
        if (n == nullptr) break;
        if (effects) {
          ++n->effects;
        } else {
          n->life.on_resolve();
          --n->awaiting;
        }
        ProtocolState::Thread& me = n->threads[thread];
        if (first) {
          me.pc = kSettleSecond;
        } else {
          --me.b;
          me.pc = worker_next(me);
        }
        break;
      }
      case kSnapshot:
        if (ProtocolState* n =
                step(thread, 0, kVarVersion, kVarRefs, "snapshot")) {
          ProtocolState::Thread& me = n->threads[thread];
          me.a = n->version;  // snapshot under plan_mutex_
          if (variant != Variant::kUnrefSnapshot) ++n->refs[me.a];
          me.pc = kRun;
        }
        break;
      case kRun:
        for (int branch = 0; branch <= 1; ++branch) {
          ProtocolState* n = step(thread, branch, kVarRetired,
                                  kVarRefs | kVarQueue | kVarCounters,
                                  branch ? "run-fails" : "run");
          if (n == nullptr) continue;
          ProtocolState::Thread& me = n->threads[thread];
          if ((n->retired >> me.a) & 1u) {
            violation("mc-snapshot-retired",
                      out.back().label + " runs plan version " +
                          std::to_string(me.a) + " after it was retired");
          }
          if (branch == 0 || variant != Variant::kUncountedFailure) {
            n->life.on_complete(me.batch,
                                branch ? serve::RequestStatus::kFailed
                                       : serve::RequestStatus::kOk,
                                kServiceS, 0.0, 0.0);
          }
          if (variant != Variant::kUnrefSnapshot) --n->refs[me.a];
          me.b = static_cast<uint8_t>(me.batch.size());
          me.batch.clear();
          me.pc = worker_next(me);
        }
        break;
      default:
        break;
    }
  }

  const ProtocolState::Thread& sw = s.threads[swapper];
  if (sw.pc == kSwapBump) {
    if (ProtocolState* n = step(swapper, 0, kVarVersion, kVarVersion, "swap")) {
      n->threads[swapper] = {kSwapRetire, sw.a, n->version, {}};
      ++n->version;  // retires the old version next
    }
  } else if (sw.pc == kSwapRetire && s.refs[sw.b] == 0) {
    // Grace window: retire only once no worker holds the old snapshot.
    if (ProtocolState* n = step(swapper, 0, kVarRefs, kVarRetired, "retire")) {
      n->retired = static_cast<uint8_t>(n->retired | (1u << sw.b));
      ProtocolState::Thread& me = n->threads[swapper];
      me.pc = --me.a == 0 ? ProtocolState::kDone : uint8_t{kSwapBump};
    }
  }

  const uint8_t close_pc = s.threads[closer].pc;
  if (close_pc == kClose) {
    if (ProtocolState* n = step(closer, 0, 0, kVarDraining, "close")) {
      n->life.close();
      n->threads[closer].pc = kAwait;
    }
  } else if (close_pc == kAwait && s.life.quiescent()) {
    if (ProtocolState* n = step(closer, 0,
                                kVarInflight | kVarCounters | kVarEffects, 0,
                                "drained")) {
      // drain() returns: everything accepted must be settled and visible.
      const serve::AdmissionCounters total = n->life.total();
      if (settled(total) != total.accepted || n->effects != total.accepted) {
        violation("mc-drain-quiescence",
                  "drain() returned at " + describe(total) + "; " +
                      std::to_string(n->effects) + " side effects ran");
      }
      n->threads[closer].pc = ProtocolState::kDone;
    }
  }

  // Queue accounting holds in every reachable state, not just at the end.
  for (Step& st : out) {
    if (!st.next) continue;
    const ProtocolState& n = *st.next;
    const uint64_t accepted = n.life.total().accepted;
    const size_t queued = n.life.queue().size();
    if (accepted != n.picked + queued || queued > config_.queue_capacity ||
        n.awaiting != n.life.inflight()) {
      st.violations.push_back(
          {"mc-queue-accounting",
           "after " + st.label + ": " + std::to_string(accepted) +
               " accepted, " + std::to_string(n.picked) + " picked, " +
               std::to_string(queued) + " queued, " +
               std::to_string(n.life.inflight()) + " in flight, " +
               std::to_string(n.awaiting) + " callers waiting"});
    }
  }
  return out;
}

void Protocol::check_final(const ProtocolState& s,
                           std::vector<Violation>* violations) const {
  std::string blocked;
  for (size_t i = 0; i < s.threads.size(); ++i) {
    if (s.threads[i].pc == ProtocolState::kDone) continue;
    blocked += (blocked.empty() ? "" : ", ") + label(static_cast<int>(i));
  }
  if (!blocked.empty()) {
    violations->push_back(
        {"mc-lost-wakeup", "deadlock: " + blocked + " blocked forever"});
    return;
  }
  for (const serve::FleetTenantStats& t : s.life.tenant_stats()) {
    const serve::AdmissionCounters& c = t.admission;
    if (c.offered != settled(c) + c.rejected) {
      violations->push_back({"mc-conservation", "at quiescence tenant " +
                                                    t.name + ": " +
                                                    describe(c)});
    }
  }
}

}  // namespace duet::mc
