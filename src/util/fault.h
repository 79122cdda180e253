#pragma once
// Deterministic fault injection for the hybrid executor (DESIGN.md §11).
//
// A FaultPlan is a seeded oracle the fallible vgpu entry points consult:
// host<->device transfers, kernel launches (outright failure or a
// watchdog-killed timeout), stream operations (stalls), and device-memory
// allocation. Each query's verdict is a pure hash of
// (seed, site, device, per-site-per-device operation index), so a plan
// replays the same fault pattern for a fixed schedule regardless of wall
// time, and two plans with the same seed agree decision-for-decision.
// A plan can additionally kill one device outright after a fixed number of
// queries ("device death"): from then on every operation on it fails.
//
// The device injection points live in src/vgpu (device.cpp, stream.cpp,
// buffer_pool.cpp), and the host-side task_throw point in
// core::AsyncGpuExecutor::run; the recovery policy — retry, requeue,
// quarantine, graceful CPU degradation — lives in src/core. This header
// owns only the oracle, so util stays dependency-free.

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>

namespace hspec::util {

/// Maximum devices one plan tracks (mirrors core::kMaxDevices; util cannot
/// include core, so the bound is restated and checked by tests).
inline constexpr int kMaxFaultDevices = 64;

/// Where a fault is injected. `device_death` is never queried directly: it
/// is the verdict every device site returns once the plan has killed the
/// device. `task_throw` is host-side: the task body itself fails with an
/// error the recovery layer does not retry, so the whole batch fails.
enum class FaultSite : int {
  h2d_transfer = 0,   ///< cudaMemcpy host -> device
  d2h_transfer = 1,   ///< cudaMemcpy device -> host
  kernel_launch = 2,  ///< launch failed, kernel never ran
  kernel_timeout = 3, ///< watchdog killed the kernel; virtual time was burned
  stream_stall = 4,   ///< a stream operation wedged, then errored out
  buffer_alloc = 5,   ///< device allocator failure
  device_death = 6,   ///< the device is gone; permanent
  task_throw = 7,     ///< the task body threw on the host; not retryable
};
inline constexpr int kFaultSiteCount = 8;

const char* to_string(FaultSite site) noexcept;

/// Thrown by the vgpu injection points on a failing verdict. Carries the
/// site and device so the recovery layer can tell a fatal device death from
/// a transient fault.
class FaultError : public std::runtime_error {
 public:
  FaultError(FaultSite site, int device);

  FaultSite site() const noexcept { return site_; }
  int device() const noexcept { return device_; }

 private:
  FaultSite site_;
  int device_;
};

/// Rates are per-operation probabilities in [0, 1]; penalties are virtual
/// seconds charged before the operation errors out (a hung kernel or a
/// stalled stream costs time even though it produces nothing).
struct FaultPlanConfig {
  std::uint64_t seed = 0;
  double transfer_fault_rate = 0.0;  ///< h2d_transfer and d2h_transfer
  double kernel_fault_rate = 0.0;    ///< kernel_launch
  double kernel_timeout_rate = 0.0;  ///< kernel_timeout
  double stream_stall_rate = 0.0;    ///< stream_stall
  double alloc_fault_rate = 0.0;     ///< buffer_alloc
  double task_throw_rate = 0.0;      ///< task_throw (never a device death)
  double kernel_timeout_penalty_s = 2.0;
  double stream_stall_penalty_s = 0.5;
  /// Device that dies mid-run (-1: none). Death is by query count, not
  /// chance: the device survives its first `dies_after_ops` fault-hook
  /// queries, then every operation on it fails with device_death.
  int dead_device = -1;
  std::int64_t dies_after_ops = 0;
};

struct FaultDecision {
  bool fail = false;
  FaultSite site = FaultSite::device_death;
  double penalty_s = 0.0;  ///< virtual time to charge before throwing
};

/// The seeded oracle. Thread-safe: every rank and stream queries the one
/// plan concurrently; the per-(site, device) operation counters are atomic
/// and the verdict for a given counter value is a pure function.
class FaultPlan {
 public:
  /// Throws std::invalid_argument on a rate outside [0, 1], a dead_device
  /// past kMaxFaultDevices, or negative dies_after_ops.
  explicit FaultPlan(const FaultPlanConfig& config);
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// One injection point asks for a verdict. Never throws; the caller owns
  /// the decision to raise FaultError (see the hlint [fault-hook] rule).
  FaultDecision query(FaultSite site, int device) noexcept;

  /// Has the plan killed `device` yet?
  bool device_dead(int device) const noexcept;

  struct Stats {
    std::int64_t queries = 0;         ///< verdicts asked for
    std::int64_t injected_total = 0;  ///< failing verdicts returned
    std::int64_t device_deaths = 0;   ///< devices transitioned to dead
    std::array<std::int64_t, kFaultSiteCount> injected{};  ///< per site
  };
  Stats stats() const noexcept;

  const FaultPlanConfig& config() const noexcept { return cfg_; }

 private:
  double rate_for(FaultSite site) const noexcept;

  FaultPlanConfig cfg_;
  std::atomic<std::int64_t> queries_{0};
  std::atomic<std::int64_t> injected_total_{0};
  std::atomic<std::int64_t> deaths_{0};
  std::array<std::atomic<std::int64_t>, kFaultSiteCount> injected_{};
  /// Queries the (potentially) dying device has answered, all sites.
  std::array<std::atomic<std::int64_t>, kMaxFaultDevices> device_ops_{};
  /// Per-(site, device) operation index feeding the verdict hash.
  std::array<std::array<std::atomic<std::int64_t>, kMaxFaultDevices>,
             kFaultSiteCount>
      site_ops_{};
  std::array<std::atomic<bool>, kMaxFaultDevices> dead_{};
};

}  // namespace hspec::util
