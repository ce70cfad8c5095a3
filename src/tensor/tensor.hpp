#pragma once

// Dense row-major tensor with shared ownership of its buffer. Copying a
// Tensor is a cheap alias (shared_ptr bump); `clone()` deep-copies. This is
// the value type that flows along graph edges and through the heterogeneous
// executor's synchronization queues.

#include <cstring>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"

namespace duet {

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

  bool defined() const { return buffer_ != nullptr; }
  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  int64_t numel() const { return shape_.numel(); }
  size_t byte_size() const { return static_cast<size_t>(numel()) * dtype_size(dtype_); }

  template <typename T>
  T* data() {
    check_access<T>();
    return reinterpret_cast<T*>(buffer_.get() + offset_);
  }

  template <typename T>
  const T* data() const {
    check_access<T>();
    return reinterpret_cast<const T*>(buffer_.get() + offset_);
  }

  void* raw_data() { return buffer_ ? buffer_.get() + offset_ : nullptr; }
  const void* raw_data() const {
    return buffer_ ? buffer_.get() + offset_ : nullptr;
  }

  // Deep copy.
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
  template <typename T>
  void check_access() const {
    DUET_CHECK(defined()) << "access to undefined tensor";
    DUET_CHECK(dtype_of<T>() == dtype_)
        << "dtype mismatch: tensor is " << dtype_name(dtype_);
  }

  Shape shape_;
  DType dtype_ = DType::kFloat32;
  std::shared_ptr<uint8_t[]> buffer_;
  size_t offset_ = 0;  // byte offset into buffer_ (nonzero only for views)
};

}  // namespace duet
