// Randomized property tests: generate random layered DAGs of tensor
// operators and assert the system-wide invariants hold on all of them —
// partition validity, optimization-pass semantics preservation, executor
// equivalence under random placements, and relay round-trips — then feed
// mutated Relay text and profile-cache files to their loaders. Seeds are
// fixed, so failures reproduce.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "compiler/pass.hpp"
#include "device/calibration.hpp"
#include "models/model_zoo.hpp"
#include "profile/profile_cache.hpp"
#include "relay/relay.hpp"
#include "runtime/executor.hpp"
#include "sched/scheduler.hpp"

namespace duet {
namespace {

// Generates a random DAG: a few "lanes" of feature vectors that are mapped
// through random unary/dense ops, occasionally merged (add/concat) or
// forked, then reduced to a handful of outputs. Shapes stay rank-2
// [batch, features] so every op combination is valid.
Graph random_graph(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b("fuzz_" + std::to_string(seed), seed * 13 + 1);
  const int64_t batch = rng.uniform_int(1, 3);

  std::vector<NodeId> live;
  const int num_inputs = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < num_inputs; ++i) {
    const int64_t features = 4 << rng.uniform_int(0, 3);  // 4..32
    live.push_back(b.input(Shape{batch, features}));
  }

  const int steps = static_cast<int>(rng.uniform_int(6, 24));
  for (int s = 0; s < steps; ++s) {
    const int64_t choice = rng.uniform_int(0, 9);
    const size_t pick = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1));
    const NodeId x = live[pick];
    NodeId produced = kInvalidNode;
    switch (choice) {
      case 0:
        produced = b.relu(x);
        break;
      case 1:
        produced = b.sigmoid(x);
        break;
      case 2:
        produced = b.tanh(x);
        break;
      case 3:
      case 4:
        produced = b.dense(x, 4 << rng.uniform_int(0, 3));
        break;
      case 5: {  // merge two equal-shaped values with add (or skip)
        NodeId other = kInvalidNode;
        for (NodeId cand : live) {
          if (cand != x &&
              b.graph().node(cand).out_shape == b.graph().node(x).out_shape) {
            other = cand;
            break;
          }
        }
        produced = other != kInvalidNode ? b.add(x, other) : b.gelu(x);
        break;
      }
      case 6: {  // concat any two values along features
        const size_t pick2 = static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(live.size()) - 1));
        const NodeId y = live[pick2];
        if (b.graph().node(y).out_shape.dim(0) == batch) {
          produced = b.concat({x, y}, 1);
        } else {
          produced = b.relu(x);
        }
        break;
      }
      case 7:
        produced = b.layer_norm(x);
        break;
      case 8:
        produced = b.softmax(x);
        break;
      default:
        produced = b.dense(x, 8, "relu");
        break;
    }
    // Fork: sometimes keep the input alive as well.
    if (!rng.coin(0.35)) live.erase(live.begin() + static_cast<long>(pick));
    live.push_back(produced);
  }

  // Outputs: up to 4 live *compute* values (raw inputs as outputs would be
  // pure pass-throughs, which the engine does not route).
  std::vector<NodeId> outputs;
  for (NodeId id : live) {
    if (!b.graph().node(id).is_input()) outputs.push_back(id);
    if (outputs.size() == 4) break;
  }
  return b.finish(std::move(outputs));
}

class Fuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Fuzz, PartitionInvariantsHold) {
  Graph g = random_graph(GetParam());
  Partition p = partition_phased(g);
  p.validate(g);  // covering, non-overlapping, phase-ordered
  EXPECT_GE(p.subgraphs.size(), 1u);
}

TEST_P(Fuzz, PassesPreserveSemantics) {
  Graph g = random_graph(GetParam());
  Graph opt = PassManager::standard(CompileOptions::compiler_defaults()).run(g);
  Rng rng(GetParam() + 1);
  const auto feeds = models::make_random_feeds(g, rng);
  std::map<NodeId, Tensor> remapped;
  const auto src = g.input_ids();
  const auto dst = opt.input_ids();
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) remapped[dst[i]] = feeds.at(src[i]);
  const auto before = evaluate_graph(g, feeds);
  const auto after = evaluate_graph(opt, remapped);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(Tensor::allclose(before[i], after[i], 1e-3f, 1e-4f))
        << "seed " << GetParam() << " output " << i;
  }
}

TEST_P(Fuzz, RandomPlacementExecutesCorrectly) {
  Graph g = random_graph(GetParam());
  DevicePair devices = make_default_device_pair(GetParam());
  Partition partition = partition_phased(g);
  Rng prng(GetParam() + 2);
  Placement placement(partition.subgraphs.size());
  for (size_t i = 0; i < placement.size(); ++i) {
    placement.set(static_cast<int>(i),
                  prng.coin() ? DeviceKind::kGpu : DeviceKind::kCpu);
  }
  ExecutionPlan plan = ExecutionPlan::build(g, partition, placement, devices,
                                            CompileOptions::compiler_defaults());
  SimExecutor executor(devices);
  Rng rng(GetParam() + 3);
  const auto feeds = models::make_random_feeds(g, rng);
  const auto expect = evaluate_graph(g, feeds);
  const auto result = executor.run(plan, feeds, false);
  ASSERT_EQ(result.outputs.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_TRUE(Tensor::allclose(result.outputs[i], expect[i], 1e-3f, 1e-4f))
        << "seed " << GetParam();
  }
}

TEST_P(Fuzz, RelayRoundTripPreservesSemantics) {
  Graph g = random_graph(GetParam());
  relay::Module m = relay::from_graph(g);
  std::map<std::string, Tensor> table;
  for (const relay::Binding& bind : m.bindings) {
    if (bind.kind == relay::Binding::Kind::kConstant) {
      table[bind.var] = bind.constant.value;
    }
  }
  Graph g2 = relay::to_graph(relay::parse_module(relay::print_module(m), &table));

  Rng rng(GetParam() + 4);
  const auto feeds = models::make_random_feeds(g, rng);
  std::map<NodeId, Tensor> feeds2;
  const auto in1 = g.input_ids();
  const auto in2 = g2.input_ids();
  ASSERT_EQ(in1.size(), in2.size());
  for (size_t i = 0; i < in1.size(); ++i) feeds2[in2[i]] = feeds.at(in1[i]);
  const auto out1 = evaluate_graph(g, feeds);
  const auto out2 = evaluate_graph(g2, feeds2);
  for (size_t i = 0; i < out1.size(); ++i) {
    EXPECT_TRUE(Tensor::allclose(out1[i], out2[i], 1e-4f, 1e-5f))
        << "seed " << GetParam();
  }
}

TEST_P(Fuzz, SchedulersProduceConsistentEstimates) {
  Graph g = random_graph(GetParam());
  DevicePair devices = make_default_device_pair(GetParam() + 5);
  Partition partition = partition_phased(g);
  Profiler profiler(devices);
  ProfileOptions opts;
  opts.runs = 1;
  opts.with_noise = false;
  const auto profiles = profiler.profile_partition(partition, g, opts);
  LatencyEvaluator evaluator(partition, g, profiles, devices.link->params());
  Rng rng(GetParam() + 6);
  SchedulingContext ctx{&partition, &profiles, &evaluator, &rng};

  const double greedy =
      make_scheduler("greedy-correction")->schedule(ctx).est_latency_s;
  const double cpu = make_scheduler("cpu-only")->schedule(ctx).est_latency_s;
  const double gpu = make_scheduler("gpu-only")->schedule(ctx).est_latency_s;
  // Greedy-correction should not end up meaningfully worse than the worse of
  // the two trivial placements (small slack: it is a local search).
  EXPECT_LE(greedy, std::max(cpu, gpu) * 1.05);
  // Every reported estimate re-evaluates to itself.
  const ScheduleResult r = make_scheduler("greedy-correction")->schedule(ctx);
  EXPECT_NEAR(r.est_latency_s, evaluator.evaluate(r.placement), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Range<uint64_t>(1000, 1012));

// --- malformed inputs -----------------------------------------------------------

// One seeded corruption of `text`: one to three flipped bytes (mostly to
// characters the formats use), a truncation, or one to three dropped
// whitespace-separated tokens.
std::string mutate(std::string text, Rng& rng) {
  static const std::string kAlphabet = "0123456789-+.eE,;:()[]{}%@=\" \nTxf";
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n) - 1));
  };
  if (text.empty()) return text;
  switch (rng.uniform_int(0, 2)) {
    case 0:
      for (int64_t i = rng.uniform_int(1, 3); i > 0; --i) {
        text[pick(text.size())] =
            rng.coin(0.1) ? static_cast<char>(rng.uniform_int(0, 255))
                          : kAlphabet[pick(kAlphabet.size())];
      }
      return text;
    case 1:
      text.resize(pick(text.size()));
      return text;
    default:
      for (int64_t i = rng.uniform_int(1, 3); i > 0 && !text.empty(); --i) {
        const size_t at = pick(text.size());
        const size_t space = text.find_last_of(" \n", at);
        const size_t begin = space == std::string::npos ? 0 : space;
        const size_t end = text.find_first_of(" \n", at + 1);
        text.erase(begin, end == std::string::npos ? std::string::npos : end - begin);
      }
      return text;
  }
}

// Corrupted Relay text either parses and translates or throws a
// std::exception; it never crashes. Tiny zoo variants keep every
// materialized constant small.
TEST(FuzzInputs, MutatedRelayParsesOrThrows) {
  Rng rng(2024);
  int translated = 0;
  int rejected = 0;
  for (const std::string& name : models::zoo_model_names()) {
    const std::string text = relay::print_module(
        relay::from_graph(models::build_by_name_batched(name, 1, /*tiny=*/true)));
    for (int round = 0; round < 40; ++round) {
      const std::string mutated = mutate(text, rng);
      try {
        relay::to_graph(relay::parse_module(mutated));
        ++translated;
      } catch (const std::exception&) {
        ++rejected;
      }
    }
  }
  // Both outcomes occur, so the corpus exercises more than the first token.
  EXPECT_GT(translated, 0);
  EXPECT_GT(rejected, 0);
}

// Seeds for the Relay parser's numeric literals: a dim or an integer list
// takes integers only — never a truncated fraction, an exponent, or a value
// that overflows int64 — and a declared type is capped in elements, with an
// error naming the binding. Each seed alone must be rejected; the untouched
// module must still parse.
TEST(FuzzInputs, RelayRejectsNonIntegerAndOversizedLiterals) {
  const auto module = [](const std::string& param, const std::string& weight,
                         const std::string& attrs) {
    return "def @f(%x: Tensor[" + param + ", float32]) {\n" +
           "  %w = constant Tensor[" + weight + ", float32];\n" +
           "  %y = matmul(%x, %w);\n" +
           "  %r = reshape(%y) " + attrs + ";\n" +
           "  (%r)\n}\n";
  };
  const std::string kParam = "(2, 4)";
  const std::string kWeight = "(4, 3)";
  const std::string kAttrs = "{dims=[3 2]}";
  ASSERT_NO_THROW(
      relay::to_graph(relay::parse_module(module(kParam, kWeight, kAttrs))));

  const std::vector<std::string> bad_params = {
      "(2.5, 4)", "(2, 4.0)", "(1e8, 4)", "(1e30, 4)", "(2, 4e0)",
      "(99999999999999999999, 4)", "(-2, 4)", "(-, 4)"};
  for (const std::string& param : bad_params) {
    EXPECT_THROW(relay::parse_module(module(param, kWeight, kAttrs)), Error)
        << param;
  }
  const std::vector<std::string> bad_attrs = {
      "{dims=[3.5 2]}", "{dims=[3 2e0]}", "{dims=[1e30 2]}",
      "{dims=[3 99999999999999999999]}"};
  for (const std::string& attrs : bad_attrs) {
    EXPECT_THROW(relay::parse_module(module(kParam, kWeight, attrs)), Error)
        << attrs;
  }
  // A scalar attribute keeps its float form, but an integer one is range
  // checked too.
  EXPECT_THROW(
      relay::parse_module(module(
          kParam, kWeight, "{dims=[3 2], axis=99999999999999999999}")),
      Error);

  // Over the element cap: rejected before the constant is materialized, and
  // the error names the binding.
  try {
    relay::parse_module(module(kParam, "(4, 1000000, 1000000)", kAttrs));
    ADD_FAILURE() << "oversized constant was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("%w"), std::string::npos) << e.what();
  }
  EXPECT_THROW(relay::parse_module(module(
                   "(9223372036854775807, 9223372036854775807)", kWeight,
                   kAttrs)),
               Error);
}

// Degenerate op attributes (a zero stride, kernel or head count) are a clean
// Error naming the op and its binding, never a division by zero. A zero batch
// is a valid shape: flatten takes the product of the trailing dims instead of
// dividing numel by the batch.
TEST(FuzzInputs, RelayRejectsDegenerateOpAttributes) {
  const auto module = [](const std::string& param, const std::string& body) {
    return "def @f(%x: Tensor[" + param + ", float32]) {\n" + body +
           "  (%y)\n}\n";
  };
  const std::vector<std::pair<std::string, std::string>> degenerate = {
      {"(1, 2, 4, 4)", "  %y = max_pool2d(%x) {kernel=2, stride=0};\n"},
      {"(1, 2, 4, 4)", "  %y = max_pool2d(%x) {kernel=0};\n"},
      {"(1, 4, 8)", "  %y = multi_head_attention(%x) {heads=0};\n"},
      {"(1, 2, 4, 4)",
       "  %w = constant Tensor[(3, 2, 3, 3), float32];\n"
       "  %y = conv2d(%x, %w) {stride=0};\n"},
  };
  for (const auto& [param, body] : degenerate) {
    const relay::Module m = relay::parse_module(module(param, body));
    try {
      relay::to_graph(m);
      ADD_FAILURE() << "degenerate attributes accepted:\n" << body;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(op_name(m.bindings.back().call.op)) + " 'y'"),
                std::string::npos)
          << what;
    }
  }

  const Graph g =
      relay::to_graph(relay::parse_module(module("(0, 4)", "  %y = flatten(%x);\n")));
  ASSERT_EQ(g.outputs().size(), 1u);
  EXPECT_EQ(g.node(g.outputs()[0]).out_shape, Shape({0, 4}));
}

// A corrupted profile-cache file loads without crashing, accounts for each
// row at most once (loaded or rejected), and never hands out a non-finite or
// negative statistic.
TEST(FuzzInputs, MutatedProfileCacheLoadsSafely) {
  namespace fs = std::filesystem;
  constexpr uint64_t kCalibration = 0xCA11B;
  const fs::path dir = fs::path(::testing::TempDir()) / "duet-fuzz-cache";
  fs::remove_all(dir);
  const std::string path = (dir / "profile_cache.v1.txt").string();
  ProfileCache& cache = ProfileCache::instance();
  cache.clear();
  cache.open_disk(path, kCalibration);  // absent: flush() creates it
  std::vector<uint64_t> keys;
  for (uint64_t i = 1; i <= 24; ++i) {
    SummaryStats s;
    s.count = 5;
    s.min = 1e-4 * static_cast<double>(i);
    s.p50 = 1.1 * s.min;
    s.p90 = 1.2 * s.min;
    s.p99 = 1.3 * s.min;
    s.p999 = 1.4 * s.min;
    s.max = 1.5 * s.min;
    s.mean = s.p50;
    s.stddev = 0.1 * s.min;
    keys.push_back(i * 0x9E3779B97F4A7C15ull);
    cache.insert(keys.back(), s);
  }
  cache.flush();
  std::stringstream original;
  original << std::ifstream(path).rdbuf();
  ASSERT_FALSE(original.str().empty());

  Rng rng(77);
  for (int round = 0; round < 300; ++round) {
    const std::string mutated = mutate(original.str(), rng);
    std::ofstream(path, std::ios::trunc) << mutated;
    cache.clear();
    cache.open_disk(path, kCalibration);

    // Data rows: non-blank lines after the header; their leading hex words
    // are the keys a corrupted row could have been stored under.
    size_t rows = 0;
    std::vector<uint64_t> candidates = keys;
    std::istringstream lines(mutated);
    std::string line;
    std::getline(lines, line);
    while (std::getline(lines, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      ++rows;
      candidates.push_back(std::strtoull(line.c_str(), nullptr, 16));
    }
    const ProfileCache::Stats stats = cache.stats();
    EXPECT_LE(stats.disk_loaded + stats.rejected_rows, rows)
        << "round " << round << ":\n" << mutated;
    for (uint64_t key : candidates) {
      SummaryStats s;
      if (!cache.lookup(key, &s)) continue;
      for (double v : {s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p99, s.p999}) {
        EXPECT_TRUE(std::isfinite(v) && v >= 0.0)
            << "round " << round << " key " << key << ":\n" << mutated;
      }
    }
  }
  cache.close_disk();
  cache.clear();
  cache.reset_stats();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace duet
