#include "vgpu/buffer_pool.h"

#include <algorithm>
#include <bit>

#include "util/fault.h"

namespace hspec::vgpu {

DeviceBuffer BufferPool::acquire(std::size_t bytes) {
  // Fault hook before the lock: a dying device's allocator fails here even
  // when the request would have been served from the free list.
  if (util::FaultPlan* plan = device_->fault_plan(); plan != nullptr) {
    const util::FaultDecision verdict =
        plan->query(util::FaultSite::buffer_alloc, device_->id());
    if (verdict.fail) throw util::FaultError(verdict.site, device_->id());
  }
  util::MutexLock lock(mu_);
  ++stats_.acquisitions;
  // Smallest adequate free buffer.
  auto best = free_list_.end();
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it)
    if (it->size() >= bytes &&
        (best == free_list_.end() || it->size() < best->size()))
      best = it;
  if (best != free_list_.end()) {
    ++stats_.reuses;
    DeviceBuffer out = std::move(*best);
    free_list_.erase(best);
    return out;
  }
  ++stats_.allocations;
  // Round up so slightly differing task sizes share buckets.
  const std::size_t rounded = std::bit_ceil(std::max<std::size_t>(bytes, 64));
  return device_->alloc(rounded);
}

void BufferPool::release(DeviceBuffer buffer) {
  if (!buffer.valid()) return;
  util::MutexLock lock(mu_);
  free_list_.push_back(std::move(buffer));
}

BufferPool::Stats BufferPool::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

}  // namespace hspec::vgpu
