#pragma once

// Stateless, counter-based normal(0, stddev) generator for weight
// initialization. Element i of a stream is a pure function of
// (stream key, i): two 32-bit integer hashes of element indices feed a
// float Box–Muller transform with polynomial log and sin/cos, so a fill can
// be split across threads and SIMD lanes and still write the same bytes
// (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
// Output does not depend on thread count, chunking or the instruction set
// the block kernel was dispatched to.
//
// Layout: elements are grouped in aligned blocks of kNormalBlock. In the
// block starting at g, element g+l (l < kNormalBlock/2) and its partner
// g+l+kNormalBlock/2 form one Box–Muller pair: the first takes r·cos θ, the
// second r·sin θ, with r drawn from the hash of the first's index and θ
// from the hash of the second's.
//
// The stateful Rng (common/rng.hpp) stays the source for request feeds,
// device noise and the random baselines.

#include <cstddef>
#include <cstdint>

#include "common/threadpool.hpp"

namespace duet {

inline constexpr size_t kNormalBlock = 128;
// Bumped whenever a change to the generator changes any element it writes:
// recipe-backed tensors (tensor/tensor.hpp) are identified by their recipe,
// which names this version, instead of by their bytes.
inline constexpr uint32_t kNormalGeneratorVersion = 1;

// One generator stream: the key derived from (seed, stream ordinal).
struct NormalStream {
  NormalStream(uint64_t seed, uint64_t ordinal);

  uint32_t k0 = 0;
  uint32_t k1 = 0;
};

// Element `index` of `stream`, computed alone — the scalar reference the
// block kernel must match bit for bit.
float normal_at(const NormalStream& stream, uint64_t index, float stddev);

// Writes elements [0, n) of `stream` to `out`. Fills of more than one chunk
// of blocks fan out over `pool`; smaller ones run inline.
void fill_normal(float* out, size_t n, const NormalStream& stream,
                 float stddev, ThreadPool& pool = global_thread_pool());

namespace detail {

// Elements [first, first + blocks·kNormalBlock) of `stream` (first a
// multiple of kNormalBlock), through the ISA-dispatched kernel.
void normal_blocks(float* out, uint64_t first, size_t blocks,
                   const NormalStream& stream, float stddev);
// The same kernel compiled for the baseline ISA only, so a test can compare
// it with the dispatched clone.
void normal_blocks_baseline(float* out, uint64_t first, size_t blocks,
                            const NormalStream& stream, float stddev);

}  // namespace detail

}  // namespace duet
