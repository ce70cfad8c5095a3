#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace duet {

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)),
      dtype_(dtype),
      buffer_(new uint8_t[byte_size()]()) {}

Tensor Tensor::uninitialized(Shape shape, DType dtype) {
  Tensor out;
  out.shape_ = std::move(shape);
  out.dtype_ = dtype;
  // Default-initialized: no fill. operator new[] aligns for every dtype.
  out.buffer_.reset(new uint8_t[out.byte_size()]);
  return out;
}

Tensor Tensor::view(std::shared_ptr<uint8_t[]> buffer, size_t buffer_bytes,
                    size_t offset, Shape shape, DType dtype) {
  DUET_CHECK(buffer != nullptr) << "view of a null buffer";
  Tensor out;
  out.shape_ = std::move(shape);
  out.dtype_ = dtype;
  DUET_CHECK(offset + out.byte_size() <= buffer_bytes)
      << "view of " << out.byte_size() << " bytes at offset " << offset
      << " exceeds buffer of " << buffer_bytes;
  out.buffer_ = std::move(buffer);
  out.offset_ = offset;
  return out;
}

Tensor Tensor::clone() const {
  DUET_CHECK(defined());
  Tensor out = uninitialized(shape_, dtype_);
  if (byte_size() > 0) std::memcpy(out.raw_data(), raw_data(), byte_size());
  return out;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  DUET_CHECK(defined());
  DUET_CHECK_EQ(new_shape.numel(), shape_.numel()) << "reshape numel mismatch";
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.dtype_ = dtype_;
  out.buffer_ = buffer_;
  out.offset_ = offset_;
  return out;
}

Tensor Tensor::concat0(const std::vector<Tensor>& parts) {
  DUET_CHECK(!parts.empty()) << "concat0 of zero tensors";
  const Tensor& first = parts.front();
  DUET_CHECK(first.defined());
  DUET_CHECK_GE(first.shape().rank(), 1u) << "concat0 needs rank >= 1";

  int64_t rows = 0;
  for (const Tensor& t : parts) {
    DUET_CHECK(t.defined());
    DUET_CHECK(t.dtype() == first.dtype()) << "concat0 dtype mismatch";
    DUET_CHECK_EQ(t.shape().rank(), first.shape().rank())
        << "concat0 rank mismatch";
    for (size_t d = 1; d < first.shape().rank(); ++d) {
      DUET_CHECK_EQ(t.shape()[d], first.shape()[d])
          << "concat0 trailing-dim mismatch at dim " << d;
    }
    rows += t.shape()[0];
  }

  Tensor out = uninitialized(first.shape().with_dim(0, rows), first.dtype());
  uint8_t* dst = static_cast<uint8_t*>(out.raw_data());
  for (const Tensor& t : parts) {
    if (t.byte_size() > 0) {
      std::memcpy(dst, t.raw_data(), t.byte_size());
      dst += t.byte_size();
    }
  }
  return out;
}

Tensor Tensor::slice0(int64_t lo, int64_t count) const {
  DUET_CHECK(defined());
  DUET_CHECK_GE(shape_.rank(), 1u) << "slice0 needs rank >= 1";
  DUET_CHECK_GE(lo, 0);
  DUET_CHECK_GE(count, 0);
  DUET_CHECK_LE(lo + count, shape_[0]) << "slice0 out of range";

  Tensor out = uninitialized(shape_.with_dim(0, count), dtype_);
  const size_t row_bytes =
      shape_[0] > 0 ? byte_size() / static_cast<size_t>(shape_[0]) : 0;
  if (out.byte_size() > 0) {
    std::memcpy(out.raw_data(),
                static_cast<const uint8_t*>(raw_data()) +
                    static_cast<size_t>(lo) * row_bytes,
                out.byte_size());
  }
  return out;
}

Tensor Tensor::zeros(Shape shape, DType dtype) {
  return Tensor(std::move(shape), dtype);
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t = uninitialized(std::move(shape));
  float* p = t.data<float>();
  std::fill(p, p + t.numel(), value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t = uninitialized(std::move(shape));
  float* p = t.data<float>();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::arange(int64_t n) {
  Tensor t = uninitialized(Shape{n});
  float* p = t.data<float>();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::from_vector(Shape shape, const std::vector<float>& values) {
  DUET_CHECK_EQ(shape.numel(), static_cast<int64_t>(values.size()));
  Tensor t = uninitialized(std::move(shape));
  if (!values.empty()) {
    std::memcpy(t.raw_data(), values.data(), values.size() * sizeof(float));
  }
  return t;
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  DUET_CHECK(a.defined() && b.defined());
  DUET_CHECK(a.shape() == b.shape())
      << a.shape().to_string() << " vs " << b.shape().to_string();
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float worst = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::fabs(pa[i] - pb[i]));
  }
  return worst;
}

bool Tensor::allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.defined() || !b.defined()) return false;
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace duet
