#include "core/sched_policy.h"

#include <chrono>
#include <stdexcept>

namespace hspec::core {

double SchedulingStats::mean_ns() const noexcept {
  return decisions > 0
             ? static_cast<double>(latency_ns_total) /
                   static_cast<double>(decisions)
             : 0.0;
}

double SchedulingStats::quantile_ns(double q) const noexcept {
  if (decisions <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(decisions);
  std::int64_t cum = 0;
  for (int b = 0; b < kSchedLatencyBuckets; ++b) {
    if (hist[b] <= 0) continue;
    const std::int64_t prev = cum;
    cum += hist[b];
    if (static_cast<double>(cum) >= target) {
      const double lower = b > 0 ? sched_latency_bucket_upper_ns(b - 1) : 0.0;
      const double upper = sched_latency_bucket_upper_ns(b);
      const double frac = (target - static_cast<double>(prev)) /
                          static_cast<double>(hist[b]);
      return lower + (upper - lower) * (frac > 0.0 ? frac : 0.0);
    }
  }
  return sched_latency_bucket_upper_ns(kSchedLatencyBuckets - 1);
}

SchedulingStats read_scheduling_stats(const SchedulerShm& shm) {
  SchedulingStats s;
  for (int b = 0; b < kSchedLatencyBuckets; ++b) {
    s.hist[b] = shm.sched_latency_hist[b].load(std::memory_order_relaxed);
    s.decisions += s.hist[b];
  }
  s.latency_ns_total =
      shm.sched_latency_ns_total.load(std::memory_order_relaxed);
  return s;
}

std::unique_ptr<SchedulingPolicy> SchedulingPolicy::make(
    SchedulingPolicyKind kind) {
  if (kind != SchedulingPolicyKind::dynamic_min_load)
    throw std::invalid_argument("SchedulingPolicy::make: unknown policy kind");
  return std::make_unique<SchedulingPolicy>();
}

int timed_assign(SchedulingPolicy& policy, const SpectralTask& task,
                 TaskScheduler& sched) {
  const auto start = std::chrono::steady_clock::now();
  const int device = policy.assign(task, sched);
  const std::int64_t latency_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  sched.record_sched_latency(latency_ns);
  return device;
}

}  // namespace hspec::core
