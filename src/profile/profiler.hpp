#pragma once

// Compiler-aware profiler (paper §IV-B). For each subgraph it builds a
// micro-benchmark: the subgraph is treated as a standalone model, pushed
// through the full compilation pipeline for each device (so the measured
// numbers reflect post-fusion, post-layout code — the point of being
// "compiler-aware"), then timed for a configurable number of runs. The
// records keep latency statistics and boundary I/O sizes, which the
// scheduler uses for placement and communication analysis. Profiling is an
// offline, one-time cost — and a cached one: statistics are content-
// addressed by the subgraph's *structural* fingerprint (modeled time never
// depends on constant payloads), so each structural equivalence class
// compiles and profiles once, and a warm ProfileCache (optionally persisted
// to disk) skips the measurement loop entirely.

#include <vector>

#include "common/stats.hpp"
#include "device/device.hpp"
#include "graph/fingerprint.hpp"
#include "partition/partitioner.hpp"

namespace duet {

struct DeviceProfile {
  // The artifact the timing loop ran. Only populated when this run actually
  // compiled (a ProfileCache stats hit skips compilation), and for a
  // duplicate structural class member it aliases the class representative's
  // compile — so it is valid for modeled timing, never for numerics. The
  // ExecutionPlan compiles its own artifacts (through the CompileCache).
  CompiledSubgraph compiled;
  SummaryStats stats;   // modeled latency over `runs` noisy executions
  double mean_s = 0.0;  // convenience alias of stats.mean
};

struct SubgraphProfile {
  int subgraph_id = -1;
  // fingerprint_graph of the subgraph's graph: the plan build keys its
  // compile-cache lookups on it instead of hashing the subgraph again.
  GraphFingerprint fingerprint;
  DeviceProfile per_device[kNumDeviceKinds];  // indexed by DeviceKind
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;

  const DeviceProfile& on(DeviceKind kind) const {
    return per_device[static_cast<int>(kind)];
  }
  double time_on(DeviceKind kind) const { return on(kind).mean_s; }
  DeviceKind faster_device() const {
    return time_on(DeviceKind::kCpu) <= time_on(DeviceKind::kGpu)
               ? DeviceKind::kCpu
               : DeviceKind::kGpu;
  }
  double best_time() const { return time_on(faster_device()); }
};

struct ProfileOptions {
  int runs = 500;          // paper: "a fixed, small number (e.g., 500)"
  bool with_noise = true;  // measured runs vary; means stay stable
  CompileOptions compile = CompileOptions::compiler_defaults();
};

class Profiler {
 public:
  explicit Profiler(DevicePair& devices) : devices_(devices) {}

  // Profiles every subgraph of the partition on both devices. `digests`,
  // when given, memoizes the subgraphs' payload hashes for the caller (who
  // keeps the partition's buffers alive while it lives).
  std::vector<SubgraphProfile> profile_partition(
      const Partition& partition, const Graph& parent,
      const ProfileOptions& options = {},
      PayloadDigestMemo* digests = nullptr) const;

  // Profiles one standalone graph on one device.
  DeviceProfile profile_graph(const Graph& graph, DeviceKind kind,
                              const ProfileOptions& options = {}) const;

 private:
  // Shared measurement path: one ProfileCache lookup, then (on miss) one
  // compile — `precompiled` short-circuits it when the partition fan-out
  // already built the artifact — and the serial timing loop.
  DeviceProfile profile_one(const Graph& graph, const GraphFingerprint& fp,
                            DeviceKind kind, const ProfileOptions& options,
                            const CompiledSubgraph* precompiled) const;

  DevicePair& devices_;
};

}  // namespace duet
