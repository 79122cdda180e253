#pragma once
// The scheduling decision site and its telemetry (DESIGN.md §15). The
// paper ships exactly one strategy — Algorithm 1: every rank picks the
// min-load device at task-submission time (TaskScheduler::sche_alloc) and
// falls back to the CPU when every queue is full — and so does this code.
//
// Instrumentation: every primary allocation decision is clocked by
// timed_assign() and recorded in SchedulerShm's fixed-bucket latency
// histogram; read_scheduling_stats() folds it into the SchedulingStats
// surfaced by HybridResult / service::ServiceStats.

#include <cstdint>
#include <memory>

#include "core/scheduler.h"
#include "core/shm.h"
#include "core/task.h"

namespace hspec::apec {
class SpectrumCalculator;
}
namespace hspec::vgpu {
struct DeviceProperties;
}

namespace hspec::core {

/// The one supported strategy: the paper's Algorithm 1 min-load pick.
enum class SchedulingPolicyKind : std::int32_t {
  dynamic_min_load = 0,
};

/// One batch's scheduling-latency telemetry, read back from the shm
/// histogram after the ranks join. Counts sum to the batch's tasks_total
/// (timed_assign clocks exactly one decision per task).
struct SchedulingStats {
  std::int64_t hist[kSchedLatencyBuckets] = {};
  std::int64_t decisions = 0;       ///< sum of hist
  std::int64_t latency_ns_total = 0;

  double mean_ns() const noexcept;
  /// Histogram quantile with linear interpolation inside the bucket that
  /// crosses q * decisions (the standard estimator — without it a quantile
  /// could only move in ~25% bucket-width jumps). 0 when no decisions were
  /// recorded; never exceeds the last bucket's upper bound.
  double quantile_ns(double q) const noexcept;
  double median_ns() const noexcept { return quantile_ns(0.5); }
};

/// Snapshot the shm latency histogram into a SchedulingStats (relaxed
/// loads; call after the ranks have joined).
SchedulingStats read_scheduling_stats(const SchedulerShm& shm);

/// The batch a policy is about to schedule. Algorithm 1 decides from live
/// queue state alone, so begin_batch() ignores it.
struct BatchContext {
  const apec::SpectrumCalculator* calc = nullptr;
  TaskGranularity granularity = TaskGranularity::ion;
  int device_count = 0;
  const vgpu::DeviceProperties* device_properties = nullptr;
};

/// Algorithm 1 as a policy object: stateless, so one instance may be shared
/// by every rank.
class SchedulingPolicy {
 public:
  /// Throws std::invalid_argument for any kind but dynamic_min_load.
  static std::unique_ptr<SchedulingPolicy> make(SchedulingPolicyKind kind);

  void begin_batch(const BatchContext&) noexcept {}

  /// Pick (and reserve a queue slot on) a device for the task, or return -1
  /// for the CPU path. Thread-safe: called concurrently by every rank.
  int assign(const SpectralTask&, TaskScheduler& sched) {
    return sched.sche_alloc();
  }
};

/// The instrumented decision site: clock assign() and record the latency in
/// the shm histogram. Every task goes through here exactly once (fault-path
/// re-allocations call sche_alloc directly), which is what keeps the
/// histogram counts equal to tasks_total.
int timed_assign(SchedulingPolicy& policy, const SpectralTask& task,
                 TaskScheduler& sched);

}  // namespace hspec::core
