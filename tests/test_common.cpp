// Unit tests for common utilities: stats, rng, the counter-based normal
// generator, strings, thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "common/counter_normal.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/threadpool.hpp"

namespace duet {
namespace {

// --- stats -------------------------------------------------------------------

TEST(Stats, PercentileExactValues) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.5);
}

// n < 5 uses nearest-rank: tiny samples report an actual observation
// instead of extrapolating a fictitious tail (p99 of two points is the
// larger point, not 9.9 manufactured between them).
TEST(Stats, PercentileTinySampleNearestRank) {
  std::vector<double> v{0.0, 10.0};
  // rank = ceil(0.25 * 2) = 1 -> first observation.
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 0.0);
  // rank = ceil(0.99 * 2) = 2 -> second observation, not 9.9.
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.51), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
}

TEST(Stats, PercentileNearestRankFourSamples) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.0);    // ceil(2.0) = rank 2
  EXPECT_DOUBLE_EQ(percentile(v, 0.75), 3.0);   // ceil(3.0) = rank 3
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 4.0);   // ceil(3.96) = rank 4
  EXPECT_DOUBLE_EQ(percentile(v, 0.24), 1.0);   // ceil(0.96) = rank 1
}

// At n >= 5 the convention switches to linear interpolation.
TEST(Stats, PercentileInterpolatesAtFive) {
  std::vector<double> v{0.0, 10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.375), 15.0);  // between ranks, interpolated
}

TEST(Stats, PercentileSingleSample) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.999), 42.0);
}

TEST(Stats, PercentileEmptyThrows) {
  std::vector<double> empty;
  EXPECT_THROW(percentile_sorted(empty, 0.5), Error);
}

TEST(Stats, PercentileBadQuantileThrows) {
  std::vector<double> v{1.0};
  EXPECT_THROW(percentile_sorted(v, 1.5), Error);
}

TEST(Stats, RecorderSummary) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i);
  const SummaryStats s = rec.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_GT(s.p99, 98.0);
  EXPECT_GT(s.stddev, 0.0);
}

TEST(Stats, EmptySummaryIsZero) {
  const SummaryStats s = LatencyRecorder().summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, MeanStd) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0}), 3.0);
  EXPECT_NEAR(stddev_of({2.0, 4.0}), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(stddev_of({5.0}), 0.0);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.uniform() != b.uniform();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, LognormalFactorMedianNearOne) {
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.lognormal_factor(0.2));
  EXPECT_NEAR(percentile(samples, 0.5), 1.0, 0.02);
  // Upper tail heavier than lower.
  EXPECT_GT(percentile(samples, 0.999) - 1.0, 1.0 - percentile(samples, 0.001));
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.normal(2.0, 3.0));
  EXPECT_NEAR(mean_of(samples), 2.0, 0.1);
  EXPECT_NEAR(stddev_of(samples), 3.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

// --- strings -----------------------------------------------------------------

TEST(StringUtil, SplitJoinRoundTrip) {
  const std::vector<std::string> parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, HumanTime) {
  EXPECT_EQ(human_time(0.002), "2.000 ms");
  EXPECT_EQ(human_time(3.5e-6), "3.50 us");
  EXPECT_EQ(human_time(2.0), "2.000 s");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(1536), "1.5 KiB");
  EXPECT_EQ(human_bytes(3u << 20), "3.0 MiB");
}

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%s", std::string(500, 'a').c_str()).size(), 500u);
}

// --- counter-based normal generator -------------------------------------------

std::vector<float> scalar_normals(const NormalStream& stream, uint64_t first,
                                  size_t n, float stddev) {
  std::vector<float> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = normal_at(stream, first + i, stddev);
  return out;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(CounterNormal, ParallelFillMatchesScalarReference) {
  const NormalStream stream(42, 3);
  ThreadPool one(1);
  ThreadPool four(4);
  // Partial block, one block minus one, one block, one chunk plus one, and
  // enough chunks to fan out with a ragged tail.
  for (size_t n : {size_t{1}, size_t{127}, size_t{128}, size_t{65537},
                   size_t{300001}}) {
    const std::vector<float> ref = scalar_normals(stream, 0, n, 0.5f);
    for (ThreadPool* pool : {&one, &four}) {
      std::vector<float> out(n, -1.0f);
      fill_normal(out.data(), n, stream, 0.5f, *pool);
      EXPECT_TRUE(same_bytes(out, ref))
          << "n=" << n << " threads=" << pool->size();
    }
  }
}

TEST(CounterNormal, DispatchedCloneMatchesBaselineClone) {
  if (!__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "no AVX2: the dispatcher picks the default clone";
  }
  // 64 blocks straddling element 2^32, where the index's high word enters
  // the key.
  const NormalStream stream(7, 11);
  const size_t blocks = 64;
  const uint64_t first = (uint64_t{1} << 32) - 32 * kNormalBlock;
  std::vector<float> avx2(blocks * kNormalBlock);
  std::vector<float> baseline(blocks * kNormalBlock);
  detail::normal_blocks(avx2.data(), first, blocks, stream, 1.0f);
  detail::normal_blocks_baseline(baseline.data(), first, blocks, stream, 1.0f);
  EXPECT_TRUE(same_bytes(avx2, baseline));
  EXPECT_TRUE(same_bytes(
      baseline, scalar_normals(stream, first, blocks * kNormalBlock, 1.0f)));
}

TEST(CounterNormal, MomentsAndTailsOfTwoToTheTwentyDraws) {
  const float sigma = 2.5f;
  std::vector<float> out(size_t{1} << 20);
  fill_normal(out.data(), out.size(), NormalStream(1, 0), sigma);
  double sum = 0.0;
  double sum_sq = 0.0;
  double max_abs = 0.0;
  for (float x : out) {
    ASSERT_TRUE(std::isfinite(x));
    sum += x;
    sum_sq += static_cast<double>(x) * x;
    max_abs = std::max(max_abs, std::fabs(static_cast<double>(x)));
  }
  const double n = static_cast<double>(out.size());
  const double mean = sum / n;
  const double stddev = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_LT(std::fabs(mean), 0.005 * sigma);
  EXPECT_LT(std::fabs(stddev / sigma - 1.0), 0.005);
  EXPECT_LE(max_abs, 6.0 * sigma);
}

TEST(CounterNormal, StreamsAreKeyedBySeedAndOrdinal) {
  const size_t n = 256;
  const std::vector<float> a = scalar_normals(NormalStream(42, 0), 0, n, 1.0f);
  EXPECT_TRUE(same_bytes(a, scalar_normals(NormalStream(42, 0), 0, n, 1.0f)));
  EXPECT_FALSE(same_bytes(a, scalar_normals(NormalStream(42, 1), 0, n, 1.0f)));
  EXPECT_FALSE(same_bytes(a, scalar_normals(NormalStream(43, 0), 0, n, 1.0f)));
}

// --- thread pool ---------------------------------------------------------------

TEST(ThreadPool, SubmitRuns) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSmallRunsInline) {
  ThreadPool pool(4);
  int sum = 0;  // intentionally unsynchronized: must run inline
  pool.parallel_for(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ParallelForZero) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

}  // namespace
}  // namespace duet
