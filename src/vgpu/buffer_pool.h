#pragma once
// Device-memory pooling. Real CUDA codes avoid cudaMalloc/cudaFree inside
// task loops (they serialize the device); the hybrid executor runs one
// allocation pattern per task, so a size-bucketed free list removes all
// steady-state allocations. Thread-safe: many ranks share one device.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_annotations.h"
#include "vgpu/device.h"

namespace hspec::vgpu {

class BufferPool {
 public:
  explicit BufferPool(Device& device) : device_(&device) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Get a buffer of at least `bytes` (smallest adequate free buffer, else
  /// a fresh allocation rounded up to the next power of two).
  DeviceBuffer acquire(std::size_t bytes);

  /// Return a buffer for reuse. Invalid buffers are ignored.
  void release(DeviceBuffer buffer);

  Device& device() noexcept { return *device_; }

  struct Stats {
    std::uint64_t acquisitions = 0;
    std::uint64_t reuses = 0;       ///< served from the free list
    std::uint64_t allocations = 0;  ///< fell through to Device::alloc
  };
  Stats stats() const;

 private:
  Device* device_;
  mutable util::Mutex mu_;
  std::vector<DeviceBuffer> free_list_ HSPEC_GUARDED_BY(mu_);
  Stats stats_ HSPEC_GUARDED_BY(mu_);
};

}  // namespace hspec::vgpu
