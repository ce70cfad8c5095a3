#pragma once

// Batch-crossover certification (ISSUE 7 tentpole, part 3b). For every
// subgraph of a phased partition, evaluate the analytic cost model at each
// integer value of one symbol (the batch dimension B) over its declared
// range and find where the CPU-vs-GPU preference flips. GPU time charges the
// PCIe transfers the placement would induce (boundary in + out); CPU time is
// the bare subgraph time, matching the paper's "CPU owns the graph, GPU
// placements pay the boundary" asymmetry.
//
// Each flip is certified, not asserted: the report carries the analytic
// times on BOTH sides of the boundary, so a reader (or the CI artifact
// check) can re-evaluate the model and confirm the preference really
// changes. The sorted set of flip points is the proposed bucket-boundary
// list for shape-bucketed compilation (ROADMAP "batch-size-dependent
// plans").

#include <string>
#include <vector>

#include "analysis/symbolic/sym_cost.hpp"
#include "device/calibration.hpp"

namespace duet::symbolic {

struct CrossoverOptions {
  std::string symbol = "B";
  int64_t lo = 1;
  int64_t hi = 64;
  DeviceCostParams cpu = xeon_gold_6152();
  DeviceCostParams gpu = titan_v();
  TransferParams link = pcie3_x16();
  CompileOptions compile;  // defaults: compiled mode
};

// Maximal batch interval [lo, hi] with one constant preferred device.
struct PreferenceInterval {
  int64_t lo = 0;
  int64_t hi = 0;
  DeviceKind device = DeviceKind::kCpu;
};

// The certificate for one flip: analytic times immediately before and after
// `batch` (the first batch of the new preference).
struct CrossoverBoundary {
  int64_t batch = 0;
  DeviceKind from = DeviceKind::kCpu;
  DeviceKind to = DeviceKind::kGpu;
  double cpu_before = 0;
  double gpu_before = 0;
  double cpu_after = 0;
  double gpu_after = 0;
};

struct SubgraphCrossover {
  int subgraph = -1;
  std::string label;
  std::vector<PreferenceInterval> intervals;
  std::vector<CrossoverBoundary> boundaries;
};

struct CrossoverReport {
  std::string model;
  std::string symbol;
  int64_t lo = 0;
  int64_t hi = 0;
  std::vector<SubgraphCrossover> subgraphs;
  // Distinct flip batches across all subgraphs, sorted — the proposed
  // bucket boundaries (each bucket = one plan).
  std::vector<int64_t> bucket_boundaries;

  bool any_flip() const { return !bucket_boundaries.empty(); }
  std::string to_string() const;
  std::string to_json() const;
};

// Scans `options.symbol` over [lo, hi]; other symbols must be pinned in
// `pinned` (throws on an unbound symbol, like SymExpr::eval).
CrossoverReport analyze_crossover(const Graph& parent,
                                  const Partition& partition,
                                  const SymbolicShapes& shapes,
                                  const CrossoverOptions& options = {},
                                  const SymBindings& pinned = {});

// Certificate -> serving export (ISSUE 10): the report's flip batches,
// clipped to the serving runtime's coalescing range (1, max_batch], ready
// to seed `make_batch_buckets`. The report keeps every certified flip; the
// serving registry only buckets the range it will actually batch over.
std::vector<int64_t> serving_bucket_boundaries(const CrossoverReport& report,
                                               int64_t max_batch);

}  // namespace duet::symbolic
