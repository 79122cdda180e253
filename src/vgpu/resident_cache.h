#pragma once
// Per-device resident data cache: device copies of host arrays that never
// change for the lifetime of a run (the spectral grid's bin edges above all).
//
// Synchronous mode re-uploads the identical (n_bins+1)*8-byte edge
// array on every task — pure PCIe waste, since the grid is fixed for the
// whole parameter-space sweep. The cache uploads each distinct host array
// once per device and leases the resident copy to every subsequent task;
// the paper's §V asynchronous-mode remedy only pays off once this per-task
// H2D traffic is gone (otherwise the copy engine, not the kernel lanes,
// sets the pipeline's pace).
//
// Keying: (host pointer, byte count). Callers must lease only arrays whose
// storage is stable and immutable while the cache lives — true for
// EnergyGrid::edges(), whose vector never reallocates after construction.
// Thread-safe: many ranks lease from one device's cache concurrently; the
// first lease of a key uploads under the lock so the copy happens once.

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "util/thread_annotations.h"
#include "vgpu/device.h"

namespace hspec::vgpu {

class ResidentCache {
 public:
  explicit ResidentCache(Device& device) : device_(&device) {}
  ResidentCache(const ResidentCache&) = delete;
  ResidentCache& operator=(const ResidentCache&) = delete;

  /// Device-resident copy of the host array [data, data + bytes). Uploads
  /// on the first lease of a key (a miss); later leases are hits and cost
  /// nothing. The reference stays valid until clear() — do not call clear()
  /// concurrently with lease().
  const DeviceBuffer& lease(const void* data, std::size_t bytes);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;           ///< uploads actually performed
    std::uint64_t bytes_uploaded = 0;   ///< H2D bytes spent on misses
    std::uint64_t bytes_saved = 0;      ///< H2D bytes hits would have cost
  };
  Stats stats() const;
  std::size_t entries() const;

  /// Drop all resident buffers (frees device memory). Leased references
  /// become dangling; only call between runs.
  void clear();

  Device& device() noexcept { return *device_; }

 private:
  Device* device_;
  mutable util::Mutex mu_;
  std::map<std::pair<const void*, std::size_t>, DeviceBuffer> resident_
      HSPEC_GUARDED_BY(mu_);
  Stats stats_ HSPEC_GUARDED_BY(mu_);
};

}  // namespace hspec::vgpu
