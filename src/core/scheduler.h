#pragma once
// Algorithm 1 of the paper: the shared-memory task scheduler.
//
//   SCHE-ALLOC(): scan all devices for the minimum load l_i; break ties by
//   minimum history task count h_i; if the winner's load is below the
//   maximum queue length, atomically { l++ ; h++ } and return the device,
//   otherwise return -1 (the caller runs the task on the CPU; the paper
//   calls QAGS there, this code the kernel rule, DESIGN.md §2).
//   SCHE-FREE(device): atomically { l-- }.
//
// Task-queue terminology (§III-A): a device's *load* is its active +
// waiting tasks; *maximum queue length* bounds the load; *history task
// count* is the cumulative number of tasks a queue has ever received.
//
// The pure selection policy is factored out (`pick_device`) so the
// discrete-event simulator replays exactly the same decision procedure the
// live scheduler uses.

#include <cstdint>
#include <span>

#include "core/shm.h"

namespace hspec::core {

/// The pure Algorithm 1 selection rule: index of the device with minimum
/// load (ties: minimum history), or -1 if `loads` is empty or the winner is
/// already at `max_queue_length`. No side effects.
int pick_device(std::span<const std::int32_t> loads,
                std::span<const std::int64_t> histories,
                std::int32_t max_queue_length) noexcept;

/// Scheduling outcome counters (per scheduler instance, not in shm).
struct SchedulerStats {
  std::int64_t gpu_allocations = 0;
  std::int64_t cpu_fallbacks = 0;
  /// Lost CAS races on the load increment (another rank took the slot this
  /// scan chose first). Contention diagnostic: high values mean many ranks
  /// are fighting over the same min-load device.
  std::int64_t cas_retries = 0;
  // Health transitions this scheduler instance won the CAS for (each
  // transition is counted exactly once across all ranks).
  std::int64_t degradations = 0;   ///< healthy -> degraded
  std::int64_t quarantines = 0;    ///< -> quarantined
  std::int64_t recoveries = 0;     ///< degraded -> healthy (on success)
  std::int64_t readmissions = 0;   ///< quarantined -> degraded (probation)

  double gpu_task_ratio() const noexcept {
    const auto total = gpu_allocations + cpu_fallbacks;
    return total > 0 ? static_cast<double>(gpu_allocations) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// Fault-recovery accounting surfaced through HybridResult (DESIGN.md §11).
/// Balance invariants (asserted by tests/fault_injection_test.cpp):
///   injected == retried            — every injected fault fails exactly one
///                                    device attempt, which is caught and
///                                    reported exactly once;
///   retried <= requeued + cpu_fallbacks
///                                  — a failed attempt is either requeued to
///                                    a device or degraded to the host (the
///                                    inequality is strict only when tasks
///                                    degrade straight from an
///                                    all-quarantined sche_alloc verdict);
///   gpu_completed + cpu_completed == tasks_total
///                                  — exactly-once: no task lost, none done
///                                    twice.
struct FaultStats {
  std::int64_t injected = 0;       ///< faults the FaultPlan injected
  std::int64_t retried = 0;        ///< device attempts that failed
  std::int64_t requeued = 0;       ///< failed tasks resubmitted via sche_alloc
  std::int64_t cpu_fallbacks = 0;  ///< fault-driven degradations to the host
                                   ///< path (not the plain queue-full verdicts)
  std::int64_t gpu_completed = 0;  ///< tasks whose final attempt held a device
  std::int64_t cpu_completed = 0;  ///< tasks finished on the host
  std::int64_t degradations = 0;   ///< healthy -> degraded transitions
  std::int64_t quarantines = 0;    ///< -> quarantined transitions
  std::int64_t recoveries = 0;     ///< degraded -> healthy promotions
  std::int64_t readmissions = 0;   ///< quarantine -> probation re-admissions
  std::int64_t device_deaths = 0;  ///< devices the plan killed permanently
};

/// The live scheduler operating on a SchedulerShm segment. Thread-safe and
/// lock-free: any number of ranks may call sche_alloc/sche_free
/// concurrently. Unlike the paper's pseudo-code (whose scan and increment
/// are not a single critical section), the increment uses a bounded
/// compare-and-swap so the maximum queue length can never be exceeded even
/// under races; losers rescan, preserving the min-load/min-history policy.
class TaskScheduler {
 public:
  explicit TaskScheduler(SchedulerShm& shm);

  /// Algorithm 1 SCHE-ALLOC. Returns device id or -1 (all full / no GPU).
  int sche_alloc();

  /// Algorithm 1 SCHE-FREE.
  void sche_free(int device);

  /// Record one primary allocation decision's latency into the shm
  /// histogram (timed_assign's storage; relaxed — pure telemetry).
  void record_sched_latency(std::int64_t ns) noexcept;

  int device_count() const noexcept { return shm_->device_count; }
  std::int32_t max_queue_length() const noexcept {
    return shm_->max_queue_length.load(std::memory_order_relaxed);
  }
  /// Change the bound at runtime (used by the autotuner).
  void set_max_queue_length(std::int32_t len);

  std::int32_t load(int device) const;
  std::int64_t history(int device) const;

  /// --- Recovery state machine (DESIGN.md §11) -------------------------
  /// sche_alloc masks quarantined devices as full, so they drain to the
  /// CPU fallback exactly as a saturated queue does; the transitions below
  /// are reported by the executors' retry wrappers.

  DeviceHealth health(int device) const;

  /// Every device is quarantined (false when there are no devices at all —
  /// a GPU-less run is the ordinary CPU path, not a degraded one).
  bool all_quarantined() const noexcept;

  /// A task attempt failed on `device`. Bumps the consecutive-fault streak
  /// and promotes the health state per the shm thresholds; `fatal` (device
  /// death) quarantines immediately. Returns the health after the report.
  /// Concurrent reporters race on a monotone CAS, so each transition is
  /// counted by exactly one of them.
  DeviceHealth report_task_fault(int device, bool fatal = false);

  /// A task attempt succeeded on `device`: reset the streak and promote
  /// degraded back to healthy.
  void report_task_success(int device);

  /// Re-admit a quarantined device on probation (-> degraded with a clean
  /// streak). Returns false if the device was not quarantined.
  bool readmit(int device);

  const SchedulerStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  bool quarantined(int device) const noexcept;

  // Const-hardened: the segment binding never changes after construction;
  // all mutation goes through the segment's own atomics.
  SchedulerShm* const shm_;
  SchedulerStats stats_;
  // stats_ is written by the owning rank only when TaskScheduler is
  // rank-local; the shared-use driver aggregates per-rank stats instead.
};

}  // namespace hspec::core
