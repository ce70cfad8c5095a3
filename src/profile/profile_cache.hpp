#pragma once

// Content-addressed cache of profiling statistics. Profiling is modeled-time
// only, and the model depends exclusively on the compiled kernels' shapes,
// flops and launch counts — never on constant payloads — so stats are keyed
// by the *structural* graph fingerprint: every member of a structural
// equivalence class (the repeated RNN cells / residual blocks of the zoo)
// profiles once.
//
// The key also folds in the device, its cost params, the noise sigma, and
// the full ProfileOptions (runs, with_noise, compile options): any knob that
// changes the measured distribution changes the key.
//
// Persistence: `open_disk(path, calibration_key)` loads a versioned text
// file into the in-memory map so repeated duet_cli / bench runs skip
// profiling entirely; `flush()` writes the map back through a temp file and
// a rename, so a crash mid-write never leaves a truncated cache. The header
// carries a format version and the calibration fingerprint — on any
// mismatch the file is ignored (cache invalidated) and overwritten at the
// next flush. Rows that cannot be a latency distribution (non-finite or
// negative values, quantiles out of order) are skipped and counted.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/stats.hpp"
#include "device/device.hpp"
#include "graph/fingerprint.hpp"
#include "profile/profiler.hpp"

namespace duet {

// Everything that shapes one profiling measurement, folded into one key.
uint64_t profile_stats_key(const GraphFingerprint& fp, DeviceKind device,
                           const ProfileOptions& options,
                           const DeviceCostParams& params, double noise_sigma);

// Fingerprint of the whole calibrated testbed (both devices' params + noise
// sigmas + link). Recalibration invalidates every persisted profile.
uint64_t calibration_fingerprint(const DevicePair& devices);

class ProfileCache {
 public:
  static ProfileCache& instance();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t disk_loaded = 0;    // entries read from the last open_disk
    uint64_t rejected_rows = 0;  // malformed rows the last open_disk skipped
    size_t entries = 0;
  };

  bool lookup(uint64_t key, SummaryStats* out);
  void insert(uint64_t key, const SummaryStats& stats);
  // Counter-neutral probe: lets the profiler plan its compile fan-out
  // without perturbing the hit/miss statistics the tests assert on.
  bool contains(uint64_t key) const;

  // Loads `path` into memory. Returns the number of entries accepted; a
  // missing file, wrong version, or wrong calibration key loads nothing
  // (and flush() will then rewrite the file under the new calibration).
  size_t open_disk(const std::string& path, uint64_t calibration_key);
  // Writes the in-memory map to the opened path (no-op when none is open):
  // `<path>.tmp` first, renamed over `path` only when every write succeeded.
  void flush();
  void close_disk();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void clear();
  Stats stats() const;
  void reset_stats();

 private:
  ProfileCache() = default;

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, SummaryStats> map_;
  Stats stats_;
  std::atomic<bool> enabled_{true};
  std::string disk_path_;
  uint64_t calibration_key_ = 0;
};

}  // namespace duet
