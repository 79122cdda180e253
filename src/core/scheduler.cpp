#include "core/scheduler.h"

#include <stdexcept>

#include "util/dcheck.h"

namespace hspec::core {

int pick_device(std::span<const std::int32_t> loads,
                std::span<const std::int64_t> histories,
                std::int32_t max_queue_length) noexcept {
  if (loads.empty() || loads.size() != histories.size()) return -1;
  std::size_t best = 0;
  for (std::size_t i = 1; i < loads.size(); ++i) {
    if (loads[i] < loads[best] ||
        (loads[i] == loads[best] && histories[i] < histories[best]))
      best = i;
  }
  if (loads[best] >= max_queue_length) return -1;
  return static_cast<int>(best);
}

TaskScheduler::TaskScheduler(SchedulerShm& shm) : shm_(&shm) {
  if (shm_->device_count < 0 || shm_->device_count > kMaxDevices)
    throw std::invalid_argument("TaskScheduler: invalid device count in shm");
}

int TaskScheduler::sche_alloc() {
  const int n = shm_->device_count;
  if (n == 0) {
    ++stats_.cpu_fallbacks;
    return -1;
  }
  const std::int32_t lmax =
      shm_->max_queue_length.load(std::memory_order_relaxed);
  // One full scan up front; afterwards only the contended entry is refreshed.
  // A failed CAS means another rank touched exactly the device we chose, so
  // the other devices' cached loads are still the freshest values we have —
  // re-reading all of them per retry (the old behaviour) just multiplies
  // shared-cache-line traffic under the very contention that caused the
  // retry. Histories only drift while we race, and they are a tie-break
  // only, so the stale copies cannot violate the queue-length bound.
  std::int32_t loads[kMaxDevices];
  std::int64_t histories[kMaxDevices];
  for (int i = 0; i < n; ++i) {
    // A quarantined device is masked as full so it drains to the CPU
    // fallback through the very same pick_device policy a saturated queue
    // uses — the selection rule the DES replays stays untouched.
    loads[i] = quarantined(i) ? lmax
                              : shm_->load[i].load(std::memory_order_acquire);
    histories[i] = shm_->history[i].load(std::memory_order_relaxed);
  }
  // Bounded retry: after repeatedly finding only full devices, give the
  // task to the CPU exactly as Algorithm 1 line 21 does.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int device = pick_device({loads, static_cast<std::size_t>(n)},
                                   {histories, static_cast<std::size_t>(n)},
                                   lmax);
    if (device < 0) break;
    std::int32_t expected = loads[device];
    // Bounded increment: succeed only while still below the cap.
    while (expected < lmax) {
      if (shm_->load[device].compare_exchange_weak(expected, expected + 1,
                                                   std::memory_order_acq_rel)) {
        // The bounded CAS proves the pre-increment load sat in [0, lmax);
        // anything else means another writer drove the slot negative or past
        // the cap behind our back.
        HSPEC_DCHECK(expected >= 0 && expected < lmax,
                     "device load outside [0, max_queue_length) at alloc");
        [[maybe_unused]] const std::int64_t prev_hist =
            shm_->history[device].fetch_add(1, std::memory_order_relaxed);
        HSPEC_DCHECK(prev_hist >= 0, "history task count went negative");
        ++stats_.gpu_allocations;
        return device;
      }
      ++stats_.cas_retries;
      // expected reloaded by compare_exchange_weak; loop re-checks the cap.
    }
    // The chosen device filled up under us: refresh that one entry (its
    // load came back through `expected`) and re-pick from the cache. The
    // health re-check covers a device quarantined between the scan and the
    // CAS; a quarantine landing after a successful CAS is benign — that one
    // task runs (or faults and is retried), and the next scan masks it.
    loads[device] = quarantined(device) ? lmax : expected;
    histories[device] = shm_->history[device].load(std::memory_order_relaxed);
  }
  ++stats_.cpu_fallbacks;
  return -1;
}

void TaskScheduler::record_sched_latency(std::int64_t ns) noexcept {
  shm_->sched_latency_hist[sched_latency_bucket(ns)].fetch_add(
      1, std::memory_order_relaxed);
  shm_->sched_latency_ns_total.fetch_add(ns > 0 ? ns : 0,
                                         std::memory_order_relaxed);
}

void TaskScheduler::sche_free(int device) {
  if (device < 0 || device >= shm_->device_count)
    throw std::out_of_range("sche_free: bad device id");
  const std::int32_t prev =
      shm_->load[device].fetch_sub(1, std::memory_order_acq_rel);
  if (prev <= 0)
    throw std::logic_error("sche_free: load underflow (free without alloc)");
  // Upper bound: every increment went through the bounded CAS, so the load
  // being freed can never have exceeded the queue-length cap in force.
  HSPEC_DCHECK(prev <= shm_->max_queue_length.load(std::memory_order_relaxed),
               "device load above max_queue_length at free");
}

void TaskScheduler::set_max_queue_length(std::int32_t len) {
  if (len < 1)
    throw std::invalid_argument("set_max_queue_length: must be >= 1");
  shm_->max_queue_length.store(len, std::memory_order_relaxed);
}

std::int32_t TaskScheduler::load(int device) const {
  if (device < 0 || device >= shm_->device_count)
    throw std::out_of_range("load: bad device id");
  return shm_->load[device].load(std::memory_order_acquire);
}

std::int64_t TaskScheduler::history(int device) const {
  if (device < 0 || device >= shm_->device_count)
    throw std::out_of_range("history: bad device id");
  return shm_->history[device].load(std::memory_order_relaxed);
}

bool TaskScheduler::quarantined(int device) const noexcept {
  return shm_->health[device].load(std::memory_order_acquire) ==
         static_cast<std::int32_t>(DeviceHealth::quarantined);
}

DeviceHealth TaskScheduler::health(int device) const {
  if (device < 0 || device >= shm_->device_count)
    throw std::out_of_range("health: bad device id");
  return static_cast<DeviceHealth>(
      shm_->health[device].load(std::memory_order_acquire));
}

bool TaskScheduler::all_quarantined() const noexcept {
  const int n = shm_->device_count;
  if (n == 0) return false;
  for (int i = 0; i < n; ++i)
    if (!quarantined(i)) return false;
  return true;
}

DeviceHealth TaskScheduler::report_task_fault(int device, bool fatal) {
  if (device < 0 || device >= shm_->device_count)
    throw std::out_of_range("report_task_fault: bad device id");
  const std::int32_t streak =
      shm_->faults_seen[device].fetch_add(1, std::memory_order_acq_rel) + 1;
  auto target = DeviceHealth::healthy;
  if (fatal || streak >= shm_->quarantine_after)
    target = DeviceHealth::quarantined;
  else if (streak >= shm_->degrade_after)
    target = DeviceHealth::degraded;
  // Promote monotonically; the rank winning the CAS counts the transition,
  // so concurrent reporters cannot double-count it.
  std::int32_t current = shm_->health[device].load(std::memory_order_acquire);
  const auto wanted = static_cast<std::int32_t>(target);
  while (current < wanted) {
    if (shm_->health[device].compare_exchange_weak(current, wanted,
                                                   std::memory_order_acq_rel)) {
      if (target == DeviceHealth::quarantined)
        ++stats_.quarantines;
      else
        ++stats_.degradations;
      return target;
    }
  }
  return static_cast<DeviceHealth>(std::max(current, wanted));
}

void TaskScheduler::report_task_success(int device) {
  if (device < 0 || device >= shm_->device_count)
    throw std::out_of_range("report_task_success: bad device id");
  shm_->faults_seen[device].store(0, std::memory_order_release);
  // Degraded heals on success; quarantined does not (only an explicit
  // readmit() re-opens a quarantined device — a stale in-flight success
  // must not resurrect a device the plan has killed).
  auto expected = static_cast<std::int32_t>(DeviceHealth::degraded);
  if (shm_->health[device].compare_exchange_strong(
          expected, static_cast<std::int32_t>(DeviceHealth::healthy),
          std::memory_order_acq_rel))
    ++stats_.recoveries;
}

bool TaskScheduler::readmit(int device) {
  if (device < 0 || device >= shm_->device_count)
    throw std::out_of_range("readmit: bad device id");
  auto expected = static_cast<std::int32_t>(DeviceHealth::quarantined);
  if (!shm_->health[device].compare_exchange_strong(
          expected, static_cast<std::int32_t>(DeviceHealth::degraded),
          std::memory_order_acq_rel))
    return false;
  shm_->faults_seen[device].store(0, std::memory_order_release);
  ++stats_.readmissions;
  return true;
}

}  // namespace hspec::core
