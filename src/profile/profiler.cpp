#include "profile/profiler.hpp"

#include <future>
#include <map>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "device/calibration.hpp"
#include "device/interconnect.hpp"
#include "profile/profile_cache.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {

DeviceProfile Profiler::profile_one(const Graph& graph, const GraphFingerprint& fp,
                                    DeviceKind kind, const ProfileOptions& options,
                                    const CompiledSubgraph* precompiled) const {
  telemetry::ScopedSpan span(
      telemetry::enabled() ? "profile:" + graph.name() : std::string(),
      "profile", device_kind_name(kind));
  Device& dev = devices_.device(kind);
  DUET_CHECK_GT(options.runs, 0);
  DeviceProfile prof;
  ProfileCache& cache = ProfileCache::instance();
  const uint64_t key =
      profile_stats_key(fp, kind, options, dev.params(), dev.noise_sigma());
  if (cache.enabled() && cache.lookup(key, &prof.stats)) {
    prof.mean_s = prof.stats.mean;
    return prof;
  }
  if (precompiled != nullptr) {
    prof.compiled = *precompiled;
  } else {
    prof.compiled =
        compile_for_device(graph, kind, options.compile, dev.params(), &fp);
    static telemetry::Counter& compiles = telemetry::counter("profile.compiles");
    compiles.add(1);
  }
  LatencyRecorder recorder;
  for (int i = 0; i < options.runs; ++i) {
    recorder.add(dev.modeled_time(prof.compiled, options.with_noise));
  }
  prof.stats = recorder.summarize();
  prof.mean_s = prof.stats.mean;
  if (cache.enabled()) cache.insert(key, prof.stats);
  static telemetry::Counter& runs = telemetry::counter("profile.runs");
  static telemetry::Counter& graphs = telemetry::counter("profile.graphs");
  runs.add(static_cast<uint64_t>(options.runs));
  graphs.add(1);
  return prof;
}

DeviceProfile Profiler::profile_graph(const Graph& graph, DeviceKind kind,
                                      const ProfileOptions& options) const {
  return profile_one(graph, fingerprint_graph(graph), kind, options, nullptr);
}

std::vector<SubgraphProfile> Profiler::profile_partition(
    const Partition& partition, const Graph& parent,
    const ProfileOptions& options, PayloadDigestMemo* digests) const {
  telemetry::ScopedSpan span("profile-partition", "profile", parent.name());
  const size_t n = partition.subgraphs.size();
  ProfileCache& cache = ProfileCache::instance();

  std::vector<GraphFingerprint> fps(n);
  for (size_t i = 0; i < n; ++i) {
    fps[i] = fingerprint_graph(partition.subgraphs[i].graph, digests);
  }

  // Cache disabled (--no-cache): the pre-cache behavior, every subgraph
  // compiled and measured independently.
  if (!cache.enabled()) {
    std::vector<SubgraphProfile> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Subgraph& sub = partition.subgraphs[i];
      SubgraphProfile p;
      p.subgraph_id = sub.id;
      p.fingerprint = fps[i];
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        p.per_device[d] = profile_one(sub.graph, fps[i],
                                      static_cast<DeviceKind>(d), options,
                                      nullptr);
      }
      p.input_bytes = sub.input_bytes(parent);
      p.output_bytes = sub.output_bytes(parent);
      out.push_back(std::move(p));
    }
    return out;
  }

  // Structural equivalence classes; the first member is the representative.
  std::map<uint64_t, size_t> class_rep;
  for (size_t i = 0; i < n; ++i) {
    class_rep.emplace(fps[i].structural, i);
  }

  // Compile the representatives whose stats are not already cached, fanned
  // out over subgraphs×devices on the shared pool. Only the compiles run in
  // parallel: the timing loop stays serial (below, in deterministic class
  // order) because each device's noise rng is stateful.
  struct Task {
    size_t rep;
    DeviceKind dev;
  };
  std::vector<Task> tasks;
  for (const auto& [sfp, rep] : class_rep) {
    for (int d = 0; d < kNumDeviceKinds; ++d) {
      const DeviceKind dev = static_cast<DeviceKind>(d);
      const uint64_t key = profile_stats_key(fps[rep], dev, options,
                                             devices_.device(dev).params(),
                                             devices_.device(dev).noise_sigma());
      if (!cache.contains(key)) tasks.push_back({rep, dev});
    }
  }
  std::map<std::pair<uint64_t, int>, CompiledSubgraph> artifacts;
  if (!tasks.empty()) {
    std::mutex artifacts_mutex;
    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size());
    for (const Task& t : tasks) {
      futures.push_back(global_thread_pool().submit([&, t] {
        CompiledSubgraph compiled = compile_for_device(
            partition.subgraphs[t.rep].graph, t.dev, options.compile,
            devices_.device(t.dev).params(), &fps[t.rep]);
        std::lock_guard<std::mutex> lock(artifacts_mutex);
        artifacts.emplace(
            std::make_pair(fps[t.rep].structural, static_cast<int>(t.dev)),
            std::move(compiled));
      }));
    }
    for (auto& f : futures) f.get();
    static telemetry::Counter& compiles = telemetry::counter("profile.compiles");
    compiles.add(tasks.size());
  }

  // Serial measurement + assembly. Duplicate class members copy the
  // representative's profile directly (no cache traffic), so one run of this
  // loop measures each class at most once per device.
  std::vector<SubgraphProfile> out(n);
  for (size_t i = 0; i < n; ++i) {
    const Subgraph& sub = partition.subgraphs[i];
    SubgraphProfile& p = out[i];
    p.subgraph_id = sub.id;
    p.fingerprint = fps[i];
    const size_t rep = class_rep.at(fps[i].structural);
    if (rep == i) {
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        const DeviceKind dev = static_cast<DeviceKind>(d);
        auto it = artifacts.find(std::make_pair(fps[i].structural, d));
        p.per_device[d] =
            profile_one(sub.graph, fps[i], dev, options,
                        it != artifacts.end() ? &it->second : nullptr);
      }
    } else {
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        p.per_device[d] = out[rep].per_device[d];
      }
    }
    p.input_bytes = sub.input_bytes(parent);
    p.output_bytes = sub.output_bytes(parent);
  }
  return out;
}

}  // namespace duet
