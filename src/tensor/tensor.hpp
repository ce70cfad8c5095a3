#pragma once

// Dense row-major tensor with shared ownership of its buffer. Copying a
// Tensor is a cheap alias (shared_ptr bump); `clone()` deep-copies. This is
// the value type that flows along graph edges and through the heterogeneous
// executor's synchronization queues.
//
// A tensor is either plain (it owns or views a buffer) or lazy: its bytes
// are made on the first data()/raw_data(), once, and every copy taken before
// or after shares that one fill. Lazy tensors come in two kinds:
//
//  * recipe-backed (`from_recipe`): normal(0, stddev) weights from the
//    counter-based generator, a pure function of the recipe's fields, so
//    graph fingerprints hash the recipe instead of the bytes;
//  * deferred (`deferred`): a value a compiler pass derives from other
//    tensors (a folded batch norm, a folded constant), identified by a key
//    its pass computes from the derivation and its inputs' keys.
//
// Shape, dtype, byte size and defined() never make the bytes. Lazy tensors
// are immutable: the mutable accessors refuse them (clone() first), so a
// recipe or key always describes the bytes every alias holds.

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/counter_normal.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"

namespace duet {

// The fields a recipe-backed tensor's bytes are a pure function of: element
// i is normal_at(NormalStream(seed, stream), i, stddev) under generator
// `version` (common/counter_normal.hpp). Shape and dtype (float32) are the
// tensor's own. A recipe naming another generator version still identifies
// its tensor, but this build cannot make its bytes.
struct TensorRecipe {
  uint32_t version = kNormalGeneratorVersion;
  uint64_t seed = 0;
  uint64_t stream = 0;
  float stddev = 1.0f;

  bool operator==(const TensorRecipe&) const = default;
};

class Tensor {
 public:
  // Empty (null) tensor; `defined()` is false.
  Tensor() = default;

  // Allocates a zero-filled buffer of shape/dtype.
  explicit Tensor(Shape shape, DType dtype = DType::kFloat32);

  // Allocates a buffer of shape/dtype that nothing fills: its bytes are
  // indeterminate until written. Only for writers that overwrite every
  // element (copies, generators), which then skip a zero-fill pass and let
  // the first write fault the pages in.
  static Tensor uninitialized(Shape shape, DType dtype = DType::kFloat32);

  // Aliases `byte_size(shape, dtype)` bytes of an existing buffer at
  // `offset` — how the executors back boundary tensors with a slot of a
  // per-device arena (runtime/memory_plan.hpp). Shares ownership: the view
  // keeps the arena alive.
  static Tensor view(std::shared_ptr<uint8_t[]> buffer, size_t buffer_bytes,
                     size_t offset, Shape shape, DType dtype);

  // A float32 tensor whose bytes `recipe` makes on first access.
  static Tensor from_recipe(Shape shape, TensorRecipe recipe);

  // A tensor whose bytes `derive` computes on first access: it is handed a
  // plain, unfilled tensor of `shape` and `dtype` and must write every
  // element. It runs once, and what it captured is released after. `key`
  // identifies the value (see graph/fingerprint.hpp, derivation_key).
  static Tensor deferred(Shape shape, DType dtype, uint64_t key,
                         std::function<void(Tensor& out)> derive);

  bool defined() const { return buffer_ != nullptr || lazy_ != nullptr; }
  // True for recipe-backed and deferred tensors (and their aliases).
  bool lazy() const { return lazy_ != nullptr; }
  // False only while a lazy tensor's bytes are not made yet.
  bool materialized() const;
  // The recipe of a recipe-backed tensor; null otherwise.
  const TensorRecipe* recipe() const;
  // The key of a deferred tensor; 0 otherwise.
  uint64_t derivation_key() const;

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  int64_t numel() const { return shape_.numel(); }
  size_t byte_size() const { return static_cast<size_t>(numel()) * dtype_size(dtype_); }

  // Mutable access: throws on a lazy tensor.
  template <typename T>
  T* data() {
    check_access<T>();
    check_writable();
    return reinterpret_cast<T*>(buffer_.get() + offset_);
  }

  // Read access: makes a lazy tensor's bytes if they are not made yet.
  template <typename T>
  const T* data() const {
    check_access<T>();
    return reinterpret_cast<const T*>(base() + offset_);
  }

  void* raw_data() {
    check_writable();
    return buffer_ ? buffer_.get() + offset_ : nullptr;
  }
  const void* raw_data() const {
    const uint8_t* b = base();
    return b != nullptr ? b + offset_ : nullptr;
  }

  // Deep copy; always plain.
  Tensor clone() const;

  // Aliases the same buffer under a different shape (numel must match).
  Tensor reshaped(Shape new_shape) const;

  // Concatenates along dim 0 — the request-coalescing primitive: B batch-1
  // feed tensors stack into one batch-B tensor. All parts must share dtype
  // and trailing dims; rank-0 parts are rejected. Row-major layout makes
  // this a straight buffer concatenation, so stacked rows are bytewise the
  // originals (the serving batching gate memcmps on this).
  static Tensor concat0(const std::vector<Tensor>& parts);

  // Copies rows [lo, lo+count) along dim 0 into a fresh tensor — the
  // inverse of concat0, splitting a batched output back per request.
  Tensor slice0(int64_t lo, int64_t count) const;

  // --- factories -----------------------------------------------------------
  static Tensor zeros(Shape shape, DType dtype = DType::kFloat32);
  static Tensor full(Shape shape, float value);
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  static Tensor arange(int64_t n);  // float32 [0, 1, ..., n-1]
  static Tensor from_vector(Shape shape, const std::vector<float>& values);

  // Max |a - b| over all elements; both must be float32 with equal shapes.
  static float max_abs_diff(const Tensor& a, const Tensor& b);
  // True when all elements are within `atol + rtol * |b|`.
  static bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-4f,
                       float atol = 1e-5f);

 private:
  struct Lazy;

  template <typename T>
  void check_access() const {
    DUET_CHECK(defined()) << "access to undefined tensor";
    DUET_CHECK(dtype_of<T>() == dtype_)
        << "dtype mismatch: tensor is " << dtype_name(dtype_);
  }
  void check_writable() const {
    DUET_CHECK(lazy_ == nullptr)
        << "write access to a recipe-backed or deferred tensor; clone() it";
  }
  // Start of the bytes; not [[unlikely]]: every plan constant is lazy.
  const uint8_t* base() const {
    if (lazy_ != nullptr) return lazy_bytes();
    return buffer_.get();
  }
  const uint8_t* lazy_bytes() const;

  Shape shape_;
  DType dtype_ = DType::kFloat32;
  std::shared_ptr<uint8_t[]> buffer_;
  size_t offset_ = 0;  // byte offset into buffer_ (nonzero only for views)
  // Set instead of buffer_ for lazy tensors; copies share it.
  std::shared_ptr<Lazy> lazy_;
};

}  // namespace duet
