#pragma once

// Content-addressed cache of CompiledSubgraph artifacts. compile_for_device
// consults it transparently, so every caller — the profiler (subgraph ×
// device), ExecutionPlan::build (which used to recompile what the profiler
// had just compiled), the single-device baselines — shares one artifact per
// equivalence class.
//
// The key is the *value-inclusive* graph fingerprint (a CompiledSubgraph
// embeds its constant tensors, so structurally identical subgraphs with
// different weights must not share an entry) plus the node-name hash (the
// artifact also embeds names, and ExecutionPlan::build matches feeds against
// the compiled graph's input names) mixed with the target device,
// a CompileOptions key, and a DeviceCostParams key (the hardware-sensitivity
// sweeps recompile under varied params — stale costs would be silently
// wrong). Every compile is cacheable; only a disabled cache bypasses.
//
// Entries are shared_ptr<const CompiledSubgraph>; a hit returns a by-value
// copy, which is cheap because Graph/Tensor copies alias their buffers.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "compiler/lowering.hpp"
#include "graph/fingerprint.hpp"

namespace duet {

uint64_t compile_options_key(const CompileOptions& options);
uint64_t device_params_key(const DeviceCostParams& params);

class CompileCache {
 public:
  static CompileCache& instance();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bypasses = 0;
    size_t entries = 0;
  };

  static uint64_t make_key(const GraphFingerprint& fp, DeviceKind device,
                           uint64_t options_key, uint64_t params_key);

  // nullptr on miss (counts it; a following insert completes the miss).
  std::shared_ptr<const CompiledSubgraph> lookup(uint64_t key);
  void insert(uint64_t key, std::shared_ptr<const CompiledSubgraph> value);
  void count_bypass();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void clear();
  Stats stats() const;
  void reset_stats();

 private:
  CompileCache() = default;

  // Unbounded growth guard for long bench sweeps: on reaching the cap the
  // whole map is dropped (epoch reset) — correctness never depends on a hit.
  static constexpr size_t kMaxEntries = 4096;

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<const CompiledSubgraph>> map_;
  Stats stats_;
  std::atomic<bool> enabled_{true};
};

}  // namespace duet
