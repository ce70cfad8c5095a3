// Weights as recipes: recipe-backed and deferred tensors (tensor/tensor.hpp)
// make their bytes once, on first read, bytewise equal to the eager code they
// replace; graph fingerprints identify them without reading a byte; writes
// are refused; and concurrent first reads share one fill. The last test runs
// under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/counter_normal.hpp"
#include "common/threadpool.hpp"
#include "compiler/pass.hpp"
#include "graph/builder.hpp"
#include "graph/fingerprint.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {
namespace {

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.byte_size() == b.byte_size() &&
         std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()) == 0;
}

TensorRecipe recipe(uint64_t seed, uint64_t stream, float stddev) {
  TensorRecipe r;
  r.seed = seed;
  r.stream = stream;
  r.stddev = stddev;
  return r;
}

uint64_t materialized_bytes() {
  return telemetry::counter("tensor.materialized_bytes").value();
}

// x[1, rows] @ w[rows, cols]: one constant, so a graph's values fingerprint
// moves exactly when the constant's identity does.
Graph matmul_graph(const Tensor& w) {
  GraphBuilder b("recipe");
  const NodeId x = b.input(Shape{1, w.shape().dim(0)}, "x");
  return b.finish({b.matmul(x, b.constant(w, "w"))});
}

// conv(x, w, b) -> batch_norm(scale, shift) with a non-trivial scale/shift.
Graph conv_bn_graph() {
  GraphBuilder b("convbn", 5);
  const NodeId x = b.input(Shape{1, 3, 8, 8}, "x");
  const NodeId c = b.conv2d(x, 4, 3, 1, 1, "c");
  const NodeId scale = b.constant(Tensor::from_vector(Shape{4}, {1, 2, 0.5, -1}));
  const NodeId shift = b.constant(Tensor::from_vector(Shape{4}, {0, 1, -1, 2}));
  return b.finish({b.graph().add_node(OpType::kBatchNorm, {c, scale, shift})});
}

const Tensor& constant_named(const Graph& g, const std::string& suffix) {
  for (const Node& n : g.nodes()) {
    if (n.is_constant() && n.name.size() >= suffix.size() &&
        n.name.compare(n.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return n.value;
    }
  }
  ADD_FAILURE() << "no constant named *" << suffix;
  static const Tensor kNone;
  return kNone;
}

TEST(Recipes, MetadataNeverMaterializes) {
  const Tensor w = Tensor::from_recipe(Shape{300, 7}, recipe(42, 3, 0.5f));
  EXPECT_TRUE(w.defined());
  EXPECT_TRUE(w.lazy());
  EXPECT_EQ(w.shape(), Shape({300, 7}));
  EXPECT_EQ(w.dtype(), DType::kFloat32);
  EXPECT_EQ(w.byte_size(), 300u * 7u * sizeof(float));
  ASSERT_NE(w.recipe(), nullptr);
  EXPECT_EQ(w.recipe()->version, kNormalGeneratorVersion);
  EXPECT_EQ(w.derivation_key(), 0u);
  (void)content_key(w);
  (void)fingerprint_graph(matmul_graph(w));
  EXPECT_FALSE(w.materialized());
}

// The recipe's bytes are exactly what the eager builder wrote: fill_normal
// over the recipe's stream into a plain buffer.
TEST(Recipes, MaterializedRecipeEqualsFillNormal) {
  for (const int64_t n : {1, 127, 128, 129, 70000, 200001}) {
    SCOPED_TRACE(n);
    const Tensor w = Tensor::from_recipe(Shape{n}, recipe(9, 17, 0.25f));
    std::vector<float> eager(static_cast<size_t>(n));
    fill_normal(eager.data(), eager.size(), NormalStream(9, 17), 0.25f);
    ASSERT_EQ(std::memcmp(w.data<float>(), eager.data(), w.byte_size()), 0);
    EXPECT_TRUE(w.materialized());
  }
}

TEST(Recipes, CopiesAndAliasesShareOneFill) {
  telemetry::ScopedTelemetry telemetry_on(true);
  const Tensor w = Tensor::from_recipe(Shape{64, 32}, recipe(1, 2, 1.0f));
  const Tensor copy = w;
  const Tensor flat = w.reshaped(Shape{2048});
  const uint64_t before = materialized_bytes();
  const float* p = flat.data<float>();
  EXPECT_EQ(materialized_bytes() - before, w.byte_size());
  EXPECT_TRUE(w.materialized());
  EXPECT_TRUE(copy.materialized());
  EXPECT_EQ(w.data<float>(), p);
  EXPECT_EQ(copy.data<float>(), p);
  EXPECT_EQ(materialized_bytes() - before, w.byte_size()) << "filled twice";
}

// Writes through the mutable accessors are refused on the tensor and on
// every alias, so the recipe keeps describing the bytes all of them hold.
// clone() is the way to a writable copy.
TEST(Recipes, WritesAreRefusedOnEveryAlias) {
  Tensor w = Tensor::from_recipe(Shape{16, 4}, recipe(3, 0, 1.0f));
  Tensor alias = w.reshaped(Shape{64});
  const GraphFingerprint fp = fingerprint_graph(matmul_graph(w));
  EXPECT_THROW(w.data<float>(), Error);
  EXPECT_THROW(w.raw_data(), Error);
  EXPECT_THROW(alias.data<float>(), Error);
  EXPECT_THROW(alias.raw_data(), Error);

  const Tensor& read = alias;
  const float first = read.data<float>()[0];
  Tensor copy = w.clone();
  EXPECT_FALSE(copy.lazy());
  copy.data<float>()[0] = first + 1.0f;
  EXPECT_EQ(read.data<float>()[0], first);
  EXPECT_EQ(fingerprint_graph(matmul_graph(w)), fp);
  EXPECT_NE(fingerprint_graph(matmul_graph(copy)).values, fp.values);

  Tensor folded = constant_named(fold_batch_norm(conv_bn_graph()), ".w.bnfold");
  ASSERT_TRUE(folded.lazy());
  EXPECT_THROW(folded.data<float>(), Error);
}

// Every field a recipe holds is part of its identity. (Recipe-backed tensors
// are float32 by construction, so dtype has no second value to try.)
TEST(Recipes, RecipesDifferingInOneFieldFingerprintDifferently) {
  const Shape shape{32, 8};
  const TensorRecipe base = recipe(42, 5, 0.5f);
  const uint64_t values =
      fingerprint_graph(matmul_graph(Tensor::from_recipe(shape, base))).values;
  EXPECT_EQ(
      fingerprint_graph(matmul_graph(Tensor::from_recipe(shape, base))).values,
      values);

  std::vector<std::pair<std::string, Tensor>> variants;
  TensorRecipe r = base;
  r.seed = 43;
  variants.emplace_back("seed", Tensor::from_recipe(shape, r));
  r = base;
  r.stream = 6;
  variants.emplace_back("stream", Tensor::from_recipe(shape, r));
  r = base;
  r.stddev = 0.5f + 1e-7f;
  variants.emplace_back("stddev", Tensor::from_recipe(shape, r));
  variants.emplace_back("shape", Tensor::from_recipe(Shape{32, 9}, base));
  for (const auto& [field, w] : variants) {
    EXPECT_NE(fingerprint_graph(matmul_graph(w)).values, values) << field;
  }
  // A recipe naming another generator version is another tensor, and this
  // build refuses to make its bytes.
  r = base;
  r.version = kNormalGeneratorVersion + 1;
  const Tensor other_version = Tensor::from_recipe(shape, r);
  EXPECT_NE(fingerprint_graph(matmul_graph(other_version)).values, values);
  EXPECT_THROW(other_version.data<float>(), Error);
}

// A recipe and a plain tensor holding its very bytes are different
// constants to the fingerprint: one is hashed as a recipe, the other as a
// payload, under different domain tags.
TEST(Recipes, RecipeAndPayloadOfSameBytesFingerprintDifferently) {
  const Tensor w = Tensor::from_recipe(Shape{16, 16}, recipe(7, 1, 1.0f));
  const Tensor payload = w.clone();
  ASSERT_TRUE(same_bytes(w, payload));
  const GraphFingerprint a = fingerprint_graph(matmul_graph(w));
  const GraphFingerprint b = fingerprint_graph(matmul_graph(payload));
  EXPECT_EQ(a.structural, b.structural);
  EXPECT_NE(a.values, b.values);
  EXPECT_NE(content_key(w), content_key(payload));
}

// The deferred fold computes exactly what the eager fold wrote:
// w' = w * scale[o], b' = b * scale[o] + shift[o], bytewise. The pass itself
// reads no bytes.
TEST(DeferredConstants, BatchNormFoldEqualsTheEagerFold) {
  telemetry::ScopedTelemetry telemetry_on(true);
  const Graph g = conv_bn_graph();
  const uint64_t before = materialized_bytes();
  const Graph folded = fold_batch_norm(g);
  EXPECT_EQ(materialized_bytes(), before) << "the pass made bytes";

  const Tensor& w = constant_named(g, "c.w");
  const Tensor& b = constant_named(g, "c.b");
  const Tensor& wf = constant_named(folded, ".w.bnfold");
  const Tensor& bf = constant_named(folded, ".b.bnfold");
  ASSERT_TRUE(wf.lazy());
  ASSERT_TRUE(bf.lazy());
  EXPECT_NE(wf.derivation_key(), 0u);
  EXPECT_NE(wf.derivation_key(), bf.derivation_key());
  EXPECT_FALSE(w.materialized());

  const float scale[4] = {1, 2, 0.5, -1};
  const float shift[4] = {0, 1, -1, 2};
  Tensor w_eager = Tensor::uninitialized(w.shape());
  const int64_t per_filter = w.numel() / 4;
  for (int64_t o = 0; o < 4; ++o) {
    for (int64_t i = 0; i < per_filter; ++i) {
      w_eager.data<float>()[o * per_filter + i] =
          w.data<float>()[o * per_filter + i] * scale[o];
    }
  }
  Tensor b_eager(Shape{4});
  for (int64_t o = 0; o < 4; ++o) {
    b_eager.data<float>()[o] = b.data<float>()[o] * scale[o] + shift[o];
  }
  EXPECT_TRUE(same_bytes(wf, w_eager));
  EXPECT_TRUE(same_bytes(bf, b_eager));
  // The two derivations each filled once; the conv weight's recipe once.
  EXPECT_EQ(materialized_bytes() - before,
            wf.byte_size() + bf.byte_size() + w.byte_size());
}

// Two folds of the same inputs share a key; another scale is another key.
TEST(DeferredConstants, KeysFollowTheDerivationAndItsInputs) {
  const Tensor a = constant_named(fold_batch_norm(conv_bn_graph()), ".w.bnfold");
  const Tensor b = constant_named(fold_batch_norm(conv_bn_graph()), ".w.bnfold");
  EXPECT_EQ(a.derivation_key(), b.derivation_key());
  EXPECT_EQ(fingerprint_graph(fold_batch_norm(conv_bn_graph())),
            fingerprint_graph(fold_batch_norm(conv_bn_graph())));

  GraphBuilder gb("convbn", 5);
  const NodeId x = gb.input(Shape{1, 3, 8, 8}, "x");
  const NodeId c = gb.conv2d(x, 4, 3, 1, 1, "c");
  const NodeId scale = gb.constant(Tensor::from_vector(Shape{4}, {1, 2, 0.5, -2}));
  const NodeId shift = gb.constant(Tensor::from_vector(Shape{4}, {0, 1, -1, 2}));
  const Graph other =
      gb.finish({gb.graph().add_node(OpType::kBatchNorm, {c, scale, shift})});
  EXPECT_NE(constant_named(fold_batch_norm(other), ".w.bnfold").derivation_key(),
            a.derivation_key());
}

TEST(DeferredConstants, ConstantFoldEqualsEagerEvaluation) {
  GraphBuilder b("cf", 11);
  const NodeId w = b.weight(Shape{8, 8}, "w");
  const NodeId twice = b.add(w, w);
  const NodeId x = b.input(Shape{1, 8}, "x");
  const Graph g = b.finish({b.matmul(x, twice)});
  const Graph folded = fold_constants(g);
  const Tensor& f = constant_named(folded, ".folded");
  ASSERT_TRUE(f.lazy());
  EXPECT_FALSE(f.materialized());
  const Tensor plain = g.node(w).value.clone();
  EXPECT_TRUE(same_bytes(f, evaluate_node(g.node(twice), {plain, plain})));
}

// Several threads, some of them global-pool workers, first-read one recipe
// tensor and one deferred constant derived from it at the same moment. All
// see the same bytes, and each tensor is filled once. The recipe is large
// enough for fill_normal to fan out over the pool when a non-worker fills
// it; on a worker the fill runs inline. At least one worker stays free of
// the race, so a fill that fans out always has a worker to run on.
TEST(DeferredConstants, ConcurrentFirstReadsShareOneFill) {
  telemetry::ScopedTelemetry telemetry_on(true);
  GraphBuilder b("race", 23);
  const NodeId x = b.input(Shape{1, 64, 8, 8}, "x");
  const NodeId c = b.conv2d(x, 128, 5, 1, 2, "c");
  const NodeId scale = b.constant(Tensor::full(Shape{128}, 0.5f));
  const NodeId shift = b.constant(Tensor::zeros(Shape{128}));
  const Graph g =
      b.finish({b.graph().add_node(OpType::kBatchNorm, {c, scale, shift})});
  const Graph folded = fold_batch_norm(g);
  const Tensor w = constant_named(g, "c.w");
  const Tensor wf = constant_named(folded, ".w.bnfold");
  ASSERT_GT(w.numel(), int64_t{2 * 512 * 128}) << "too small to fan out";
  ASSERT_FALSE(w.materialized());
  ASSERT_FALSE(wf.materialized());

  ThreadPool& pool = global_thread_pool();
  const size_t pool_readers = pool.size() > 1 ? pool.size() - 1 : 0;
  const size_t thread_readers = 4;
  const size_t readers = pool_readers + thread_readers;
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<float>> seen_w(readers);
  std::vector<std::vector<float>> seen_wf(readers);
  const auto read = [&](size_t r) {
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    // Half read the derivation first, half the recipe.
    const Tensor& first = r % 2 == 0 ? wf : w;
    const float* p = first.data<float>();
    (r % 2 == 0 ? seen_wf : seen_w)[r].assign(p, p + first.numel());
    const Tensor& second = r % 2 == 0 ? w : wf;
    const float* q = second.data<float>();
    (r % 2 == 0 ? seen_w : seen_wf)[r].assign(q, q + second.numel());
  };

  const uint64_t before = materialized_bytes();
  std::vector<std::future<void>> pooled;
  for (size_t r = 0; r < pool_readers; ++r) {
    pooled.push_back(pool.submit([&, r] { read(r); }));
  }
  std::vector<std::thread> threads;
  for (size_t r = pool_readers; r < readers; ++r) threads.emplace_back(read, r);
  while (ready.load() < readers) std::this_thread::yield();
  go.store(true);
  for (auto& f : pooled) f.get();
  for (auto& t : threads) t.join();

  EXPECT_EQ(materialized_bytes() - before, w.byte_size() + wf.byte_size());
  for (size_t r = 0; r < readers; ++r) {
    ASSERT_EQ(seen_w[r].size(), static_cast<size_t>(w.numel()));
    ASSERT_EQ(seen_wf[r].size(), static_cast<size_t>(wf.numel()));
    EXPECT_EQ(std::memcmp(seen_w[r].data(), w.data<float>(), w.byte_size()), 0)
        << "reader " << r;
    EXPECT_EQ(std::memcmp(seen_wf[r].data(), wf.data<float>(), wf.byte_size()), 0)
        << "reader " << r;
  }
  std::vector<float> eager(static_cast<size_t>(w.numel()));
  fill_normal(eager.data(), eager.size(), NormalStream(23, 0),
              w.recipe()->stddev);
  EXPECT_EQ(std::memcmp(eager.data(), w.data<float>(), w.byte_size()), 0);
}

}  // namespace
}  // namespace duet
