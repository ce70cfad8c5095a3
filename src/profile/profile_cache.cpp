#include "profile/profile_cache.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.hpp"
#include "compiler/compile_cache.hpp"
#include "telemetry/metrics.hpp"

namespace duet {
namespace {

constexpr const char* kMagic = "duet-profile-cache";
constexpr int kFormatVersion = 1;

// A persisted row is a latency distribution: finite, non-negative, and
// min <= p50 <= p90 <= p99 <= p999 <= max. The order check allows a few
// ulps: interpolated quantiles of equal samples can land one ulp past them.
bool plausible(const SummaryStats& s) {
  for (double v : {s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p99, s.p999}) {
    if (!std::isfinite(v) || v < 0.0) return false;
  }
  const auto ordered = [](double lo, double hi) { return lo <= hi * (1.0 + 1e-12); };
  return ordered(s.min, s.p50) && ordered(s.p50, s.p90) && ordered(s.p90, s.p99) &&
         ordered(s.p99, s.p999) && ordered(s.p999, s.max);
}

uint64_t hash_double(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return hash_mix(h, bits);
}

}  // namespace

uint64_t profile_stats_key(const GraphFingerprint& fp, DeviceKind device,
                           const ProfileOptions& options,
                           const DeviceCostParams& params, double noise_sigma) {
  uint64_t h = hash_mix(0x50524F4649434143ull, fp.structural);
  h = hash_mix(h, static_cast<uint64_t>(device));
  h = hash_mix(h, static_cast<uint64_t>(options.runs));
  h = hash_mix(h, options.with_noise ? 1u : 0u);
  h = hash_mix(h, compile_options_key(options.compile));
  h = hash_mix(h, device_params_key(params));
  return hash_double(h, options.with_noise ? noise_sigma : 0.0);
}

uint64_t calibration_fingerprint(const DevicePair& devices) {
  uint64_t h = hash_mix(0x43414C4942524154ull, kFormatVersion);
  h = hash_mix(h, device_params_key(devices.cpu->params()));
  h = hash_double(h, devices.cpu->noise_sigma());
  h = hash_mix(h, device_params_key(devices.gpu->params()));
  h = hash_double(h, devices.gpu->noise_sigma());
  h = hash_double(h, devices.link->params().latency_s);
  return hash_double(h, devices.link->params().bandwidth_gbps);
}

ProfileCache& ProfileCache::instance() {
  static ProfileCache cache;
  return cache;
}

bool ProfileCache::lookup(uint64_t key, SummaryStats* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    static telemetry::Counter& misses = telemetry::counter("profile.cache.misses");
    misses.add(1);
    return false;
  }
  ++stats_.hits;
  static telemetry::Counter& hits = telemetry::counter("profile.cache.hits");
  hits.add(1);
  if (out != nullptr) *out = it->second;
  return true;
}

void ProfileCache::insert(uint64_t key, const SummaryStats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  map_[key] = stats;
}

bool ProfileCache::contains(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.count(key) > 0;
}

size_t ProfileCache::open_disk(const std::string& path, uint64_t calibration_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_path_ = path;
  calibration_key_ = calibration_key;
  stats_.disk_loaded = 0;
  stats_.rejected_rows = 0;

  std::ifstream in(path);
  if (!in) return 0;
  std::string line;
  char magic[32] = {0};
  int version = 0;
  uint64_t calib = 0;
  size_t accepted = 0;
  uint64_t rejected = 0;
  if (std::getline(in, line) &&
      std::sscanf(line.c_str(), "%31s v%d calib %" SCNx64, magic, &version, &calib) == 3 &&
      std::strcmp(magic, kMagic) == 0 && version == kFormatVersion &&
      calib == calibration_key) {
    // One row per line: a line that is not exactly ten fields is rejected on
    // its own, so a damaged row can neither swallow its neighbour's fields
    // nor end the load early.
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      uint64_t key = 0;
      SummaryStats s;
      unsigned long long count = 0;
      int end = 0;
      const bool parsed =
          std::sscanf(line.c_str(), "%" SCNx64 " %llu %lg %lg %lg %lg %lg %lg %lg %lg %n",
                      &key, &count, &s.mean, &s.stddev, &s.min, &s.max, &s.p50, &s.p90,
                      &s.p99, &s.p999, &end) == 10 &&
          static_cast<size_t>(end) == line.size();
      s.count = static_cast<size_t>(count);
      if (!parsed || !plausible(s)) {
        ++rejected;
        continue;
      }
      map_[key] = s;
      ++accepted;
    }
  }
  stats_.disk_loaded = accepted;
  stats_.rejected_rows = rejected;
  if (rejected > 0) {
    static telemetry::Counter& rejected_rows =
        telemetry::counter("profile.cache.rejected_rows");
    rejected_rows.add(rejected);
  }
  return accepted;
}

void ProfileCache::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (disk_path_.empty()) return;
  const std::filesystem::path path(disk_path_);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  const std::string tmp = disk_path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  bool ok = std::fprintf(f, "%s v%d calib %" PRIx64 "\n", kMagic, kFormatVersion,
                         calibration_key_) >= 0;
  for (const auto& [key, s] : map_) {
    if (!ok) break;
    ok = std::fprintf(f,
                      "%" PRIx64 " %llu %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n",
                      key, static_cast<unsigned long long>(s.count), s.mean,
                      s.stddev, s.min, s.max, s.p50, s.p90, s.p99, s.p999) >= 0;
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), disk_path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    DUET_LOG_WARN << "profile cache: could not write " << disk_path_
                  << "; the previous file is kept";
  }
}

void ProfileCache::close_disk() {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_path_.clear();
  calibration_key_ = 0;
}

void ProfileCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
}

ProfileCache::Stats ProfileCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = map_.size();
  return s;
}

void ProfileCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  const Stats last_open = stats_;
  stats_ = Stats{};
  stats_.disk_loaded = last_open.disk_loaded;
  stats_.rejected_rows = last_open.rejected_rows;
}

}  // namespace duet
