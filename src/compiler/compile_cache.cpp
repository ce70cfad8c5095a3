#include "compiler/compile_cache.hpp"

#include <cstring>

#include "telemetry/metrics.hpp"

namespace duet {
namespace {

uint64_t hash_double(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return hash_mix(h, bits);
}

uint64_t hash_op_class(uint64_t h, const OpClassCost& c) {
  h = hash_double(h, c.eff);
  h = hash_double(h, c.ref_flops);
  h = hash_double(h, c.clamp_lo);
  return hash_double(h, c.clamp_hi);
}

}  // namespace

uint64_t compile_options_key(const CompileOptions& options) {
  // Persisted profile caches are keyed with these two values (five pass bits
  // set, or the framework bit alone); changing them turns every one cold.
  return hash_mix(0x434F4D50494C4F50ull, options.framework_mode ? 32u : 31u);
}

uint64_t device_params_key(const DeviceCostParams& params) {
  uint64_t h = hash_mix(0x4445564943455053ull, static_cast<uint64_t>(params.kind));
  h = hash_bytes(params.name.data(), params.name.size(), h);
  h = hash_double(h, params.peak_gflops);
  h = hash_double(h, params.mem_bw_gbps);
  h = hash_double(h, params.launch_overhead_s);
  h = hash_double(h, params.framework_dispatch_s);
  h = hash_double(h, params.framework_eff);
  h = hash_double(h, params.layout_bonus);
  h = hash_double(h, params.batch_gain);
  h = hash_double(h, params.max_batch_gain);
  h = hash_op_class(h, params.dense);
  h = hash_op_class(h, params.conv);
  h = hash_op_class(h, params.rnn);
  h = hash_op_class(h, params.attention);
  h = hash_op_class(h, params.elementwise);
  return hash_op_class(h, params.fallback);
}

CompileCache& CompileCache::instance() {
  static CompileCache cache;
  return cache;
}

uint64_t CompileCache::make_key(const GraphFingerprint& fp, DeviceKind device,
                                uint64_t options_key, uint64_t params_key) {
  uint64_t h = hash_mix(fp.structural, fp.values);
  h = hash_mix(h, static_cast<uint64_t>(device));
  h = hash_mix(h, options_key);
  return hash_mix(h, params_key);
}

std::shared_ptr<const CompiledSubgraph> CompileCache::lookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    static telemetry::Counter& misses = telemetry::counter("compile.cache.misses");
    misses.add(1);
    return nullptr;
  }
  ++stats_.hits;
  static telemetry::Counter& hits = telemetry::counter("compile.cache.hits");
  hits.add(1);
  return it->second;
}

void CompileCache::insert(uint64_t key,
                          std::shared_ptr<const CompiledSubgraph> value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.size() >= kMaxEntries) map_.clear();
  map_[key] = std::move(value);
}

void CompileCache::count_bypass() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.bypasses;
}

void CompileCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = map_.size();
  return s;
}

void CompileCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = Stats{};
}

}  // namespace duet
