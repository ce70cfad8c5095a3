// Tests for the content-addressed caches: fingerprint discrimination and
// canonicalization, the transparent CompileCache inside compile_for_device,
// the disk-backed ProfileCache (round trip + calibration invalidation), the
// profiler's once-per-equivalence-class compile guarantee, and the engine-
// level guarantees (bit-identical outputs cache on/off, warm runs skip
// profiling entirely).

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "compiler/compile_cache.hpp"
#include "duet/duet.hpp"
#include "graph/builder.hpp"
#include "graph/fingerprint.hpp"
#include "profile/profile_cache.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {
namespace {

// The caches are process-wide singletons shared by every test in this
// binary: start each test from a clean, enabled, memory-only state.
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProfileCache::instance().close_disk();
    ProfileCache::instance().clear();
    ProfileCache::instance().reset_stats();
    ProfileCache::instance().set_enabled(true);
    CompileCache::instance().clear();
    CompileCache::instance().reset_stats();
    CompileCache::instance().set_enabled(true);
  }
  void TearDown() override { SetUp(); }
};

// --- fingerprint discrimination -------------------------------------------------

// A small MLP with a weight, so both structure and constant payloads exist.
Graph mlp(const std::string& prefix, uint64_t seed = 42, int64_t width = 32,
          int64_t units = 8) {
  GraphBuilder b(prefix + "-mlp", seed);
  const NodeId x = b.input(Shape{1, width}, prefix + ".x");
  const NodeId h = b.dense(x, units, "relu", prefix + ".fc1");
  return b.finish({b.dense(h, 4, "", prefix + ".fc2")});
}

TEST(Fingerprint, DeterministicAcrossBuilds) {
  const GraphFingerprint a = fingerprint_graph(mlp("m"));
  const GraphFingerprint b = fingerprint_graph(mlp("m"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(fingerprint_names(mlp("m")), fingerprint_names(mlp("m")));
}

TEST(Fingerprint, RenamingChangesNeitherStructureNorValues) {
  const Graph a = mlp("alpha");
  const Graph b = mlp("beta");
  EXPECT_EQ(fingerprint_graph(a).structural, fingerprint_graph(b).structural);
  EXPECT_EQ(fingerprint_graph(a).values, fingerprint_graph(b).values);
  // ...but the name hash (the compile cache's extra key component) differs.
  EXPECT_NE(fingerprint_names(a), fingerprint_names(b));
}

TEST(Fingerprint, ConstantPayloadFlipsValuesOnly) {
  // Same architecture, different weight init: one structural class, two
  // distinct numeric artifacts.
  const GraphFingerprint a = fingerprint_graph(mlp("m", /*seed=*/1));
  const GraphFingerprint b = fingerprint_graph(mlp("m", /*seed=*/2));
  EXPECT_EQ(a.structural, b.structural);
  EXPECT_NE(a.values, b.values);
}

TEST(Fingerprint, ShapePerturbationChangesStructural) {
  EXPECT_NE(fingerprint_graph(mlp("m", 42, /*width=*/32)).structural,
            fingerprint_graph(mlp("m", 42, /*width=*/33)).structural);
  EXPECT_NE(fingerprint_graph(mlp("m", 42, 32, /*units=*/8)).structural,
            fingerprint_graph(mlp("m", 42, 32, /*units=*/9)).structural);
}

TEST(Fingerprint, AttrPerturbationChangesStructural) {
  // slice_rows(0,2) vs slice_rows(1,3): identical ops, shapes and dtypes —
  // only the begin/end attributes differ.
  const auto sliced = [](int64_t begin) {
    GraphBuilder b("slice");
    const NodeId x = b.input(Shape{4, 16}, "x");
    return b.finish({b.slice_rows(x, begin, begin + 2)});
  };
  const Graph a = sliced(0);
  const Graph c = sliced(1);
  ASSERT_EQ(a.node(a.outputs()[0]).out_shape, c.node(c.outputs()[0]).out_shape);
  EXPECT_NE(fingerprint_graph(a).structural, fingerprint_graph(c).structural);
}

TEST(Fingerprint, DtypePerturbationChangesStructural) {
  const auto typed = [](DType dtype) {
    GraphBuilder b("typed");
    const NodeId x = b.input(Shape{1, 16}, "x", dtype);
    return b.finish({b.relu(x)});
  };
  EXPECT_NE(fingerprint_graph(typed(DType::kFloat32)).structural,
            fingerprint_graph(typed(DType::kInt32)).structural);
}

TEST(Fingerprint, TopologyPerturbationChangesStructural) {
  // add(a, mul(a, b)) vs add(b, mul(a, b)): same node multiset, one edge
  // rewired. And add(x, x) vs add(x, y): positional input hashing.
  const auto rewired = [](bool to_b) {
    GraphBuilder b("rewired");
    const NodeId a = b.input(Shape{1, 8}, "a");
    const NodeId c = b.input(Shape{1, 8}, "b");
    const NodeId m = b.mul(a, c);
    return b.finish({b.add(to_b ? c : a, m)});
  };
  EXPECT_NE(fingerprint_graph(rewired(false)).structural,
            fingerprint_graph(rewired(true)).structural);

  const auto fanin = [](bool same) {
    GraphBuilder b("fanin");
    const NodeId x = b.input(Shape{1, 8}, "x");
    const NodeId y = b.input(Shape{1, 8}, "y");
    return b.finish({b.add(x, same ? x : y), b.relu(y)});
  };
  EXPECT_NE(fingerprint_graph(fanin(true)).structural,
            fingerprint_graph(fanin(false)).structural);
}

TEST(Fingerprint, InsertionOrderDoesNotMatter) {
  // The same two-branch computation built left-first and right-first: node
  // ids and stored order differ, the computation does not.
  const auto branches = [](bool left_first) {
    GraphBuilder b("branches");
    const NodeId x = b.input(Shape{1, 8}, "x");
    const NodeId y = b.input(Shape{1, 8}, "y");
    NodeId left = -1;
    NodeId right = -1;
    if (left_first) {
      left = b.relu(x);
      right = b.tanh(y);
    } else {
      right = b.tanh(y);
      left = b.relu(x);
    }
    return b.finish({b.add(left, right)});
  };
  const GraphFingerprint a = fingerprint_graph(branches(true));
  const GraphFingerprint b = fingerprint_graph(branches(false));
  EXPECT_EQ(a.structural, b.structural);
  EXPECT_EQ(a.values, b.values);
}

// --- payload digest memo ----------------------------------------------------------

// A shared memo changes the work, never the result: for every paper-size zoo
// model and every subgraph of its phased partition (whose constants alias
// the model's buffers), fingerprints with and without the memo are
// bit-identical, and the whole model fingerprinted after its subgraphs finds
// every payload in the memo.
TEST(Fingerprint, SharedMemoIsBitIdenticalAcrossTheZoo) {
  for (const std::string& name : models::zoo_model_names()) {
    SCOPED_TRACE(name);
    const Graph model = models::build_by_name(name);
    const Partition partition = partition_phased(model, PartitionOptions{});
    PayloadDigestMemo memo;
    for (const Subgraph& sub : partition.subgraphs) {
      const GraphFingerprint plain = fingerprint_graph(sub.graph);
      const GraphFingerprint memoized = fingerprint_graph(sub.graph, &memo);
      EXPECT_EQ(memoized.structural, plain.structural) << sub.label;
      EXPECT_EQ(memoized.values, plain.values) << sub.label;
    }
    ASSERT_GT(memo.size(), 0u) << "no payload reached the memo";
    const size_t digests = memo.size();
    const uint64_t hits = memo.hits();
    const GraphFingerprint whole = fingerprint_graph(model, &memo);
    EXPECT_EQ(whole.structural, fingerprint_graph(model).structural);
    EXPECT_EQ(whole.values, fingerprint_graph(model).values);
    EXPECT_EQ(memo.size(), digests) << "the model holds a payload no subgraph has";
    EXPECT_GE(memo.hits() - hits, digests);
  }
}

// `g` with every constant a plain copy of its bytes — what a Relay import
// holds, and what every builder weight was before weights became recipes.
Graph with_payload_constants(Graph g) {
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    Node& node = g.mutable_node(static_cast<NodeId>(i));
    if (node.is_constant()) node.value = node.value.clone();
  }
  return g;
}

TEST(Fingerprint, SharedMemoHitsAliasedPayloadsOnly) {
  // Four payload constants: fc1's weight and bias, fc2's weight and bias.
  const Graph a =
      with_payload_constants(mlp("a", /*seed=*/1, /*width=*/64, /*units=*/64));
  const Graph alias = a;  // copies alias constant buffers
  const Graph other = with_payload_constants(mlp("a", /*seed=*/2, 64, 64));
  PayloadDigestMemo memo;
  const GraphFingerprint fa = fingerprint_graph(a, &memo);
  EXPECT_EQ(memo.size(), 4u);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(fingerprint_graph(alias, &memo), fa);
  EXPECT_EQ(memo.hits(), 4u) << "every aliased payload must hit";

  // Same shapes, other buffers (different weights, equal zero biases): new
  // digests, and different values.
  const GraphFingerprint fo = fingerprint_graph(other, &memo);
  EXPECT_EQ(memo.size(), 8u);
  EXPECT_EQ(memo.hits(), 4u);
  EXPECT_EQ(fo.structural, fa.structural);
  EXPECT_NE(fo.values, fa.values);
  EXPECT_EQ(fo, fingerprint_graph(other));

  // The same buffer as a constant of the same shape in another graph hits;
  // under another shape of the same byte size the seed (the constant's own
  // hash) differs, so the memo must not serve the first digest.
  Tensor fc1_weight;
  for (const Node& node : a.nodes()) {
    if (node.name == "a.fc1.w") fc1_weight = node.value;
  }
  ASSERT_TRUE(fc1_weight.defined());
  const auto weight_as = [&](Shape shape) {
    GraphBuilder b("view");
    const NodeId x = b.input(Shape{1, shape.dim(0)}, "x");
    const NodeId w = b.constant(fc1_weight.reshaped(shape), "w");
    return b.finish({b.matmul(x, w)});
  };
  const Graph square = weight_as(Shape{64, 64});
  const Graph wide = weight_as(Shape{32, 128});
  EXPECT_EQ(fingerprint_graph(square, &memo), fingerprint_graph(square));
  EXPECT_EQ(memo.hits(), 5u);
  EXPECT_EQ(fingerprint_graph(wide, &memo), fingerprint_graph(wide));
  EXPECT_EQ(memo.hits(), 5u) << "a payload under a new seed is a miss";
  EXPECT_EQ(memo.size(), 9u);
}

// Pins the payload path: a constant held as plain bytes (a Relay import, a
// hand-built Tensor::from_vector) hashes its bytes under the payload tag.
TEST(Fingerprint, PayloadConstantIsPinned) {
  GraphBuilder b("payload");
  const NodeId x = b.input(Shape{1, 4}, "x");
  const NodeId w = b.constant(
      Tensor::from_vector(Shape{4, 2}, {1, -2, 3, -4, 0.5f, 0.25f, 8, 16}), "w");
  const Graph g = b.finish({b.matmul(x, w)});
  EXPECT_EQ(fingerprint_graph(g).values, 0xD18E64B5DDD17350ull);
}

// --- CompileCache ----------------------------------------------------------------

TEST_F(CacheTest, CompileForDeviceHitsOnRecompile) {
  const Graph g = mlp("cc");
  DevicePair devices = make_default_device_pair(3);
  const CompileOptions options = CompileOptions::compiler_defaults();

  const CompiledSubgraph first =
      compile_for_device(g, DeviceKind::kCpu, options, devices.cpu->params());
  CompileCache::Stats s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);

  const CompiledSubgraph second =
      compile_for_device(g, DeviceKind::kCpu, options, devices.cpu->params());
  s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(first.graph().num_nodes(), second.graph().num_nodes());

  // The other device is a distinct artifact.
  compile_for_device(g, DeviceKind::kGpu, options, devices.gpu->params());
  s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 2u);
}

TEST_F(CacheTest, RenamedTwinMissesCompileCacheButSharesProfileKey) {
  // Renamed twins: same structural class (one profile) but distinct compile
  // artifacts (the plan matches feeds by input name).
  const Graph a = mlp("one");
  const Graph b = mlp("two");
  DevicePair devices = make_default_device_pair(3);
  const CompileOptions options = CompileOptions::compiler_defaults();

  compile_for_device(a, DeviceKind::kCpu, options, devices.cpu->params());
  compile_for_device(b, DeviceKind::kCpu, options, devices.cpu->params());
  const CompileCache::Stats s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);

  ProfileOptions popts;
  EXPECT_EQ(profile_stats_key(fingerprint_graph(a), DeviceKind::kCpu, popts,
                              devices.cpu->params(), devices.cpu->noise_sigma()),
            profile_stats_key(fingerprint_graph(b), DeviceKind::kCpu, popts,
                              devices.cpu->params(), devices.cpu->noise_sigma()));
}

TEST_F(CacheTest, CompileOptionsKeysMatchPersistedValues) {
  // Persisted profile_cache files key on these two values; a change here
  // turns every warm disk cache cold.
  const uint64_t compiled = compile_options_key(CompileOptions::compiler_defaults());
  const uint64_t framework = compile_options_key(CompileOptions::framework());
  EXPECT_EQ(compiled, hash_mix(0x434F4D50494C4F50ull, 31));
  EXPECT_EQ(framework, hash_mix(0x434F4D50494C4F50ull, 32));
  EXPECT_NE(compiled, framework);
}

// --- ProfileCache disk persistence ----------------------------------------------

TEST_F(CacheTest, DiskRoundTripAndCalibrationInvalidation) {
  const std::string dir = ::testing::TempDir() + "/duet-cache-test";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/profile_cache.v1.txt";
  ProfileCache& pc = ProfileCache::instance();

  EXPECT_EQ(pc.open_disk(path, 0xAAu), 0u);  // nothing on disk yet
  SummaryStats s;
  s.count = 500;
  s.mean = 1.2500000000000001e-3;
  s.stddev = 3.0517578125e-5;
  s.min = 1.1e-3;
  s.max = 1.9e-3;
  s.p50 = 1.24e-3;
  s.p90 = 1.5e-3;
  s.p99 = 1.7e-3;
  s.p999 = 1.89e-3;
  pc.insert(0x1234u, s);
  pc.flush();

  // Same calibration: full-precision round trip.
  pc.clear();
  EXPECT_EQ(pc.open_disk(path, 0xAAu), 1u);
  SummaryStats out;
  ASSERT_TRUE(pc.lookup(0x1234u, &out));
  EXPECT_EQ(out.count, s.count);
  EXPECT_EQ(out.mean, s.mean);
  EXPECT_EQ(out.stddev, s.stddev);
  EXPECT_EQ(out.min, s.min);
  EXPECT_EQ(out.max, s.max);
  EXPECT_EQ(out.p50, s.p50);
  EXPECT_EQ(out.p90, s.p90);
  EXPECT_EQ(out.p99, s.p99);
  EXPECT_EQ(out.p999, s.p999);

  // Different calibration: the file is ignored (recalibration invalidates
  // every persisted profile) and the next flush rewrites it.
  pc.clear();
  EXPECT_EQ(pc.open_disk(path, 0xBBu), 0u);
  pc.flush();
  pc.clear();
  EXPECT_EQ(pc.open_disk(path, 0xAAu), 0u);
  pc.close_disk();
  std::filesystem::remove_all(dir);
}

TEST_F(CacheTest, DiskLoadSkipsImplausibleRows) {
  telemetry::ScopedTelemetry on(true);
  telemetry::MetricsRegistry::instance().reset();
  const std::string dir = ::testing::TempDir() + "/duet-cache-rows";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/profile_cache.v1.txt";
  {
    std::ofstream f(path);
    f << "duet-profile-cache v1 calib aa\n"
      // key count mean stddev min max p50 p90 p99 p999
      << "11 5 1e-3 1e-5 9e-4 2e-3 1e-3 1.1e-3 1.5e-3 1.9e-3\n"
      << "22 5 nan 1e-5 9e-4 2e-3 1e-3 1.1e-3 1.5e-3 1.9e-3\n"
      << "33 5 1e-3 1e-5 9e-4 2e-3 1.2e-3 1.1e-3 1.5e-3 1.9e-3\n"
      << "44 5 1e-3 1e-5 -9e-4 2e-3 1e-3 1.1e-3 1.5e-3 1.9e-3\n"
      << "55 5 2e-3 0 2e-3 2e-3 2e-3 2e-3 2e-3 2e-3\n";
  }
  ProfileCache& pc = ProfileCache::instance();
  EXPECT_EQ(pc.open_disk(path, 0xAAu), 2u);
  EXPECT_EQ(pc.stats().rejected_rows, 3u);
  EXPECT_EQ(telemetry::counter("profile.cache.rejected_rows").value(), 3u);
  EXPECT_TRUE(pc.contains(0x11u));
  EXPECT_TRUE(pc.contains(0x55u));
  EXPECT_FALSE(pc.contains(0x22u));  // nan mean
  EXPECT_FALSE(pc.contains(0x33u));  // p50 > p90
  EXPECT_FALSE(pc.contains(0x44u));  // negative min
  pc.close_disk();
  std::filesystem::remove_all(dir);
}

TEST_F(CacheTest, FlushReplacesTheFileThroughARename) {
  const std::string dir = ::testing::TempDir() + "/duet-cache-flush";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/profile_cache.v1.txt";
  ProfileCache& pc = ProfileCache::instance();
  EXPECT_EQ(pc.open_disk(path, 0xAAu), 0u);
  SummaryStats s;
  s.count = 1;
  s.mean = s.min = s.max = s.p50 = s.p90 = s.p99 = s.p999 = 1e-3;
  pc.insert(0x1u, s);
  pc.flush();
  pc.insert(0x2u, s);
  pc.flush();
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  pc.clear();
  EXPECT_EQ(pc.open_disk(path, 0xAAu), 2u);
  EXPECT_EQ(pc.stats().rejected_rows, 0u);
  pc.close_disk();
  std::filesystem::remove_all(dir);
}

// --- profiler: once per structural equivalence class -----------------------------

TEST_F(CacheTest, ColdRunCompilesOncePerClassWarmRunHitsEverything) {
  telemetry::ScopedTelemetry on(true);
  telemetry::MetricsRegistry::instance().reset();

  // Siamese: the two branch subgraphs are structurally identical (different
  // weights, different names) — a genuine duplicate class.
  const Graph model = models::build_siamese(models::SiameseConfig::tiny());
  const Partition partition = partition_phased(model);
  const size_t n = partition.subgraphs.size();

  std::set<uint64_t> classes;
  for (const Subgraph& sub : partition.subgraphs) {
    classes.insert(fingerprint_graph(sub.graph).structural);
  }
  ASSERT_LT(classes.size(), n) << "fixture must contain duplicate classes";

  DevicePair devices = make_default_device_pair(3);
  Profiler profiler(devices);
  ProfileOptions opts;
  opts.runs = 3;
  opts.with_noise = false;

  const auto profiles = profiler.profile_partition(partition, model, opts);
  ProfileCache::Stats s = ProfileCache::instance().stats();
  EXPECT_EQ(s.misses, classes.size() * 2);  // one lookup per class per device
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(telemetry::counter("profile.compiles").value(), classes.size() * 2);

  // Duplicate members carry the representative's statistics.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (fingerprint_graph(partition.subgraphs[i].graph).structural !=
          fingerprint_graph(partition.subgraphs[j].graph).structural) {
        continue;
      }
      EXPECT_EQ(profiles[i].time_on(DeviceKind::kCpu),
                profiles[j].time_on(DeviceKind::kCpu));
      EXPECT_EQ(profiles[i].time_on(DeviceKind::kGpu),
                profiles[j].time_on(DeviceKind::kGpu));
    }
  }

  // Warm re-profile: zero compiles, 100% hit rate, identical stats.
  ProfileCache::instance().reset_stats();
  const uint64_t compiles_before = telemetry::counter("profile.compiles").value();
  const auto warm = profiler.profile_partition(partition, model, opts);
  s = ProfileCache::instance().stats();
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, classes.size() * 2);
  EXPECT_EQ(telemetry::counter("profile.compiles").value(), compiles_before);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(warm[i].time_on(DeviceKind::kCpu),
              profiles[i].time_on(DeviceKind::kCpu));
    EXPECT_EQ(warm[i].time_on(DeviceKind::kGpu),
              profiles[i].time_on(DeviceKind::kGpu));
  }
}

TEST_F(CacheTest, DisabledCacheTakesLegacyPath) {
  ProfileCache::instance().set_enabled(false);
  const Graph model = models::build_siamese(models::SiameseConfig::tiny());
  const Partition partition = partition_phased(model);
  DevicePair devices = make_default_device_pair(3);
  Profiler profiler(devices);
  ProfileOptions opts;
  opts.runs = 2;
  opts.with_noise = false;
  const auto profiles = profiler.profile_partition(partition, model, opts);
  EXPECT_EQ(profiles.size(), partition.subgraphs.size());
  // No cache traffic at all.
  const ProfileCache::Stats s = ProfileCache::instance().stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
  for (const SubgraphProfile& p : profiles) {
    EXPECT_GT(p.time_on(DeviceKind::kCpu), 0.0);
    EXPECT_GT(p.time_on(DeviceKind::kGpu), 0.0);
  }
}

// --- engine-level guarantees ----------------------------------------------------

TEST_F(CacheTest, EngineOutputsBitIdenticalCacheOnOff) {
  const auto run = [](bool caches_on) {
    ProfileCache::instance().clear();
    ProfileCache::instance().set_enabled(caches_on);
    CompileCache::instance().clear();
    CompileCache::instance().set_enabled(caches_on);
    DuetOptions opts;
    opts.seed = 5;
    DuetEngine engine(models::build_wide_deep(models::WideDeepConfig::tiny()),
                      opts);
    Rng rng(9);
    const auto feeds = models::make_random_feeds(engine.model(), rng);
    return engine.infer(feeds).outputs;
  };
  const std::vector<Tensor> with_cache = run(true);
  const std::vector<Tensor> without_cache = run(false);
  ASSERT_EQ(with_cache.size(), without_cache.size());
  ASSERT_FALSE(with_cache.empty());
  for (size_t i = 0; i < with_cache.size(); ++i) {
    ASSERT_EQ(with_cache[i].byte_size(), without_cache[i].byte_size());
    EXPECT_EQ(std::memcmp(with_cache[i].raw_data(), without_cache[i].raw_data(),
                          with_cache[i].byte_size()),
              0)
        << "output " << i << " differs between cached and uncached runs";
  }
}

TEST_F(CacheTest, WarmDiskCacheSkipsProfilingInANewProcess) {
  const std::string dir = ::testing::TempDir() + "/duet-warm-engine";
  std::filesystem::remove_all(dir);
  DuetOptions opts;
  opts.profile_cache_dir = dir;

  // Cold run: populates and flushes the disk cache.
  DuetEngine cold(models::build_wide_deep(models::WideDeepConfig::tiny()), opts);
  ASSERT_GT(ProfileCache::instance().stats().misses, 0u);

  // Simulate a fresh process: drop the in-memory map, keep the disk file.
  ProfileCache::instance().close_disk();
  ProfileCache::instance().clear();
  ProfileCache::instance().reset_stats();

  DuetEngine warm(models::build_wide_deep(models::WideDeepConfig::tiny()), opts);
  const ProfileCache::Stats s = ProfileCache::instance().stats();
  EXPECT_EQ(s.misses, 0u) << "warm run must not re-profile anything";
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.disk_loaded, 0u);

  // Same profiles, same decisions, same estimate.
  EXPECT_EQ(cold.report().schedule.placement, warm.report().schedule.placement);
  EXPECT_EQ(cold.report().est_hetero_s, warm.report().est_hetero_s);
  ProfileCache::instance().close_disk();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace duet
