#include "tensor/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <new>

#include "telemetry/metrics.hpp"

namespace duet {

// The shared state of a lazy tensor and all its aliases. `make` runs once,
// under `once`, on whichever thread first reads the bytes. A recipe fill
// started on a global-pool worker runs fill_normal's parallel_for inline
// there; one started elsewhere fans out over the pool, so pool tasks must
// not wait on a lazy tensor another thread may be filling. None does:
// kernels read their operands' bytes before they fan out.
struct alignas(64) Tensor::Lazy {
  // Read on every access once made. The alignment keeps these lines apart
  // from the reference counts that every copy of the tensor writes.
  std::atomic<bool> made{false};
  Tensor value;  // plain, once made
  std::once_flag once;
  std::function<void(Tensor&)> make;
  Shape shape;  // as declared; an alias may be reshaped
  DType dtype = DType::kFloat32;
  TensorRecipe recipe;  // recipe-backed when key == 0
  uint64_t key = 0;     // deferred: the derivation key
};

namespace {

// A buffer for a lazy tensor's bytes: whole cache lines of its own. A
// weight is made on whichever thread first reads it, typically a serving
// worker, whose heap also holds every request's temporaries; sharing a line
// with their allocator metadata would make each write there evict the
// weight from every core that is reading it.
constexpr size_t kLine = 64;

std::shared_ptr<uint8_t[]> line_aligned_buffer(size_t bytes) {
  const size_t rounded = std::max<size_t>((bytes + kLine - 1) / kLine, 1) * kLine;
  return std::shared_ptr<uint8_t[]>(
      new (std::align_val_t{kLine}) uint8_t[rounded],
      [](uint8_t* p) { ::operator delete[](p, std::align_val_t{kLine}); });
}

}  // namespace

Tensor Tensor::from_recipe(Shape shape, TensorRecipe recipe) {
  Tensor out;
  out.shape_ = std::move(shape);
  out.dtype_ = DType::kFloat32;
  out.lazy_ = std::make_shared<Lazy>();
  out.lazy_->shape = out.shape_;
  out.lazy_->recipe = recipe;
  out.lazy_->make = [recipe](Tensor& t) {
    DUET_CHECK_EQ(recipe.version, kNormalGeneratorVersion)
        << "recipe of another weight generator version";
    fill_normal(t.data<float>(), static_cast<size_t>(t.numel()),
                NormalStream(recipe.seed, recipe.stream), recipe.stddev);
  };
  return out;
}

Tensor Tensor::deferred(Shape shape, DType dtype, uint64_t key,
                        std::function<void(Tensor&)> derive) {
  DUET_CHECK_NE(key, 0u) << "a deferred tensor needs a nonzero key";
  Tensor out;
  out.shape_ = std::move(shape);
  out.dtype_ = dtype;
  out.lazy_ = std::make_shared<Lazy>();
  out.lazy_->shape = out.shape_;
  out.lazy_->dtype = dtype;
  out.lazy_->key = key;
  out.lazy_->make = std::move(derive);
  return out;
}

bool Tensor::materialized() const {
  return lazy_ == nullptr || lazy_->made.load(std::memory_order_acquire);
}

const TensorRecipe* Tensor::recipe() const {
  return lazy_ != nullptr && lazy_->key == 0 ? &lazy_->recipe : nullptr;
}

uint64_t Tensor::derivation_key() const {
  return lazy_ != nullptr ? lazy_->key : 0;
}

const uint8_t* Tensor::lazy_bytes() const {
  Lazy& lazy = *lazy_;
  // Made already: one acquire load, without call_once's per-call set-up.
  if (lazy.made.load(std::memory_order_acquire)) return lazy.value.buffer_.get();
  std::call_once(lazy.once, [&] {
    // tensor.materialized_bytes: bytes filled by recipes and derivations.
    static telemetry::Counter& bytes =
        telemetry::counter("tensor.materialized_bytes");
    Tensor v;
    v.shape_ = lazy.shape;
    v.dtype_ = lazy.dtype;
    v.buffer_ = line_aligned_buffer(v.byte_size());
    lazy.make(v);
    lazy.value = std::move(v);
    lazy.make = nullptr;
    bytes.add(lazy.value.byte_size());
    lazy.made.store(true, std::memory_order_release);
  });
  return lazy.value.buffer_.get();
}

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
  out.lazy_ = lazy_;
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
