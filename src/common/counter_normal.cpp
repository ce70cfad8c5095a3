#include "common/counter_normal.hpp"

// Built with -ffp-contract=off and -fno-math-errno (src/CMakeLists.txt): no
// FMA contraction, so every clone rounds exactly like the scalar reference,
// and sqrt is the bare instruction.

#include <algorithm>
#include <bit>
#include <cstring>

namespace duet {
namespace {

constexpr uint32_t kHalf = kNormalBlock / 2;
// Blocks per thread-pool task: 64 Ki elements, 256 KiB of output.
constexpr size_t kChunkBlocks = 512;

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// 32-bit integer hash (C. Wellons' "lowbias32"): 32-bit multiplies only,
// which every SIMD level from SSE4.1 up has.
[[gnu::always_inline]] inline uint32_t mix32(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7FEB352Du;
  x ^= x >> 15;
  x *= 0x846CA68Bu;
  x ^= x >> 16;
  return x;
}

// Random bits of the element whose index has low word `lo`; `k1` already
// carries the index's high word.
[[gnu::always_inline]] inline uint32_t bits_at(uint32_t lo, uint32_t k0,
                                               uint32_t k1) {
  return mix32(mix32(lo ^ k0) ^ k1);
}

[[gnu::always_inline]] inline uint32_t high_key(const NormalStream& stream,
                                                uint64_t index) {
  return stream.k1 ^ (static_cast<uint32_t>(index >> 32) * 0x9E3779B9u);
}

// Natural log of u in (0, 1] (Cephes logf: reduction to m·2^e with m in
// [sqrt(1/2), sqrt(2)), then a degree-9 polynomial in m - 1; ~1e-7 relative
// error). The reduction is integer arithmetic, so the loop has no branches.
[[gnu::always_inline]] inline float log_unit(float u) {
  const uint32_t bits = std::bit_cast<uint32_t>(u);
  const uint32_t shifted = bits - 0x3F3504F3u;  // bits of sqrt(1/2)
  const int32_t e = static_cast<int32_t>(shifted) >> 23;
  const float x =
      std::bit_cast<float>(bits - (shifted & 0xFF800000u)) - 1.0f;
  const float z = x * x;
  float y = 7.0376836292e-2f;
  y = y * x - 1.1514610310e-1f;
  y = y * x + 1.1676998740e-1f;
  y = y * x - 1.2420140846e-1f;
  y = y * x + 1.4249322787e-1f;
  y = y * x - 1.6668057665e-1f;
  y = y * x + 2.0000714765e-1f;
  y = y * x - 2.4999993993e-1f;
  y = y * x + 3.3333331174e-1f;
  y = y * x * z;
  const float fe = static_cast<float>(e);
  y += fe * -2.12194440e-4f;
  y += -0.5f * z;
  return x + y + fe * 0.693359375f;
}

// Box–Muller in two halves, so the block kernel can run each as its own
// short loop. Radius from the bits `a`: u in (0, 1] from 24 bits, so the log
// stays finite and |z| <= 5.8 stddev.
[[gnu::always_inline]] inline float radius(uint32_t a, float stddev) {
  const float u = static_cast<float>(static_cast<int32_t>((a >> 8) + 1)) *
                  0x1p-24f;
  return __builtin_sqrtf(-2.0f * log_unit(u)) * stddev;
}

// r·cos θ and r·sin θ for the angle drawn from the bits `b`.
[[gnu::always_inline]] inline void rotate(float r, uint32_t b, float& z_cos,
                                          float& z_sin) {
  // θ = q·π/2 + φ: quadrant q from the top two bits, φ in [-π/4, π/4) from
  // the next 24, so sin φ and cos φ need no further range reduction.
  const uint32_t q = b >> 30;
  const float f =
      static_cast<float>(static_cast<int32_t>((b >> 6) & 0xFFFFFFu)) * 0x1p-24f;
  const float phi = (f - 0.5f) * 1.57079632679489662f;
  const float p2 = phi * phi;
  float s = -1.9515295891e-4f;  // Cephes sinf/cosf on [-π/4, π/4]
  s = s * p2 + 8.3321608736e-3f;
  s = s * p2 - 1.6666654611e-1f;
  s = s * p2 * phi + phi;
  float c = 2.443315711809948e-5f;
  c = c * p2 - 1.388731625493765e-3f;
  c = c * p2 + 4.166664568298827e-2f;
  c = c * p2 * p2 - 0.5f * p2 + 1.0f;

  // Rotate by q quarter turns: odd quadrants swap sin and cos; cos is
  // negative in quadrants 1 and 2, sin in 2 and 3.
  const uint32_t c_bits = std::bit_cast<uint32_t>(c);
  const uint32_t s_bits = std::bit_cast<uint32_t>(s);
  const uint32_t swap = (c_bits ^ s_bits) & (0u - (q & 1u));
  const uint32_t cos_bits = c_bits ^ swap;
  const uint32_t sin_bits = s_bits ^ swap;
  z_cos = r * std::bit_cast<float>(cos_bits ^ (((q + 1u) & 2u) << 30));
  z_sin = r * std::bit_cast<float>(sin_bits ^ ((q & 2u) << 30));
}

[[gnu::always_inline]] inline void blocks_body(float* __restrict out,
                                               uint64_t first, size_t blocks,
                                               const NormalStream& stream,
                                               float stddev) {
  const uint32_t k0 = stream.k0;
  for (size_t blk = 0; blk < blocks; ++blk) {
    const uint64_t start = first + blk * kNormalBlock;
    const uint32_t lo = static_cast<uint32_t>(start);
    const uint32_t k1 = high_key(stream, start);
    float* __restrict o = out + blk * kNormalBlock;
    // Three short loops instead of one long one: each iteration's
    // dependency chain is short enough for out-of-order execution to
    // overlap several of them.
    uint32_t a[kHalf] = {};
    uint32_t b[kHalf] = {};
    float r[kHalf] = {};
    for (uint32_t l = 0; l < kHalf; ++l) {
      a[l] = bits_at(lo + l, k0, k1);
      b[l] = bits_at(lo + kHalf + l, k0, k1);
    }
    for (uint32_t l = 0; l < kHalf; ++l) r[l] = radius(a[l], stddev);
    for (uint32_t l = 0; l < kHalf; ++l) {
      rotate(r[l], b[l], o[l], o[kHalf + l]);
    }
  }
}

}  // namespace

NormalStream::NormalStream(uint64_t seed, uint64_t ordinal) {
  const uint64_t key =
      splitmix64(splitmix64(seed) ^ (ordinal * 0xD1B54A32D192ED03ull));
  k0 = static_cast<uint32_t>(key);
  k1 = static_cast<uint32_t>(key >> 32);
}

float normal_at(const NormalStream& stream, uint64_t index, float stddev) {
  const uint64_t start = index - index % kNormalBlock;
  const uint32_t l = static_cast<uint32_t>(index - start) % kHalf;
  const uint32_t lo = static_cast<uint32_t>(start) + l;
  const uint32_t k1 = high_key(stream, start);
  float z_cos = 0.0f;
  float z_sin = 0.0f;
  rotate(radius(bits_at(lo, stream.k0, k1), stddev),
         bits_at(lo + kHalf, stream.k0, k1), z_cos, z_sin);
  return index - start < kHalf ? z_cos : z_sin;
}

namespace detail {

__attribute__((target_clones("avx2", "default"))) void normal_blocks(
    float* out, uint64_t first, size_t blocks, const NormalStream& stream,
    float stddev) {
  blocks_body(out, first, blocks, stream, stddev);
}

void normal_blocks_baseline(float* out, uint64_t first, size_t blocks,
                            const NormalStream& stream, float stddev) {
  blocks_body(out, first, blocks, stream, stddev);
}

}  // namespace detail

void fill_normal(float* out, size_t n, const NormalStream& stream,
                 float stddev, ThreadPool& pool) {
  const size_t full = n / kNormalBlock;
  const size_t chunks = (full + kChunkBlocks - 1) / kChunkBlocks;
  pool.parallel_for(
      chunks,
      [&](size_t c) {
        const size_t block = c * kChunkBlocks;
        detail::normal_blocks(out + block * kNormalBlock, block * kNormalBlock,
                              std::min(kChunkBlocks, full - block), stream,
                              stddev);
      },
      /*inline_below=*/2);
  if (const size_t rest = n - full * kNormalBlock; rest > 0) {
    float tail[kNormalBlock] = {};
    detail::normal_blocks(tail, full * kNormalBlock, 1, stream, stddev);
    std::memcpy(out + full * kNormalBlock, tail, rest * sizeof(float));
  }
}

}  // namespace duet
