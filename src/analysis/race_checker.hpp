#pragma once

// Plan-level happens-before race checker (ISSUE 2 tentpole, part 3). The
// threaded executor runs subgraphs concurrently, ordered only by the queue
// trigger edges (dep_subgraphs); two subgraphs without a trigger chain are
// concurrent — even on one device, where the single worker serializes them
// in a dynamically chosen order. This checker builds that partial order and
// reports, as structured diagnostics, every pair of conflicting accesses it
// does not cover:
//
//   * race-read-write     — a subgraph reads a value whose producer is not
//                           happens-before it
//   * race-write-write    — two subgraphs write the same value unordered
//   * race-transfer-order — a TransferStep's destination is not ordered
//                           after its source
//   * race-step-order     — the launch order schedules a read before the
//                           write it needs (a shuffled/corrupted step order)
//   * race-slot-alias     — two values overlap in the arena without every
//                           access of one preceding every access of the other
//   * slot-missing / slot-size — the MemoryPlan lacks (or mis-sizes) a slot
//                           a boundary value needs on some device
//
// Runs in the plan checker's standard table (lint/lint.hpp), after the
// validators.

#include "analysis/plan_validator.hpp"
#include "runtime/memory_plan.hpp"

namespace duet {

// `memory` may be null (plan without a memory plan): the access-order rules
// still run, the slot rules are skipped.
VerifyResult verify_races(const PlanView& view, const MemoryPlan* memory);
VerifyResult verify_races(const ExecutionPlan& plan);

}  // namespace duet
