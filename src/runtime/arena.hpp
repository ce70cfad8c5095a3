#pragma once

// Execution-time backing for a MemoryPlan: one byte buffer per device, with
// every boundary value staged into its planned slot as it crosses a
// subgraph boundary. Shared by both executors so the simulated and the
// threaded run read and write the exact same layout. Staging a value whose
// payload already sits in its slot (the common same-device case) is a
// zero-copy re-view; a cross-device stage is the memcpy that stands in for
// the interconnect's DMA.

#include <cstring>
#include <memory>

#include "runtime/memory_plan.hpp"
#include "tensor/tensor.hpp"

namespace duet {

class ExecutionArenas {
 public:
  // A null plan disables staging: stage() passes tensors through untouched
  // and no arenas are allocated (the latency-only fast path, and plans
  // explicitly stripped with clear_memory_plan()).
  explicit ExecutionArenas(const MemoryPlan* plan) : plan_(plan) {
    if (plan_ == nullptr) return;
    for (int d = 0; d < kNumDeviceKinds; ++d) {
      bytes_[d] = plan_->arena_bytes(static_cast<DeviceKind>(d));
      buffers_[d].reset(new uint8_t[bytes_[d]]());
    }
  }

  bool enabled() const { return plan_ != nullptr; }

  // Returns `value`'s arena-backed view on `device`, copying the payload of
  // `src` in if it lives elsewhere. Values with no slot on `device` (host
  // inputs read on the CPU, or arenas disabled) pass through unchanged.
  Tensor stage(DeviceKind device, NodeId value, const Tensor& src) const {
    if (plan_ == nullptr || !src.defined()) return src;
    const ArenaSlot* slot = plan_->find(device, value);
    if (slot == nullptr) return src;
    const int d = static_cast<int>(device);
    Tensor view = Tensor::view(buffers_[d], bytes_[d],
                               static_cast<size_t>(slot->offset), src.shape(),
                               src.dtype());
    if (view.byte_size() > 0 && view.raw_data() != src.raw_data()) {
      std::memcpy(view.raw_data(), src.raw_data(), view.byte_size());
    }
    return view;
  }

 private:
  const MemoryPlan* plan_;
  std::shared_ptr<uint8_t[]> buffers_[kNumDeviceKinds];
  size_t bytes_[kNumDeviceKinds] = {};
};

}  // namespace duet
