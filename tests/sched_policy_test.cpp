// Invariant pack for the scheduling decision site (DESIGN.md §15): latency
// bucket math, the one accepted policy kind, the tasks_total ==
// histogram-count contract on the executor and service paths, randomized
// seeded task streams (exactly-once, no lost tasks under steal races,
// quarantined devices never assigned), and a TSan regression pinning the
// atomic max_queue_length autotuner fix.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apec/calculator.h"
#include "core/hybrid.h"
#include "core/hybrid_executor.h"
#include "core/sched_policy.h"
#include "core/scheduler.h"
#include "core/shm.h"
#include "core/task.h"
#include "service/service.h"

namespace {

using namespace hspec;
using namespace hspec::core;

// ------------------------------------------------- latency bucket math

TEST(SchedLatencyBuckets, EdgeCasesAndMonotonicity) {
  // Sub-ns / non-positive readings land in bucket 0 (clock granularity).
  EXPECT_EQ(sched_latency_bucket(0), 0);
  EXPECT_EQ(sched_latency_bucket(-5), 0);
  EXPECT_EQ(sched_latency_bucket(1), 0);
  // Bucket index never decreases as the latency grows, and every bucket
  // stays in range even for absurd readings.
  int prev = 0;
  for (std::int64_t ns = 1; ns < (std::int64_t{1} << 40); ns *= 3) {
    const int b = sched_latency_bucket(ns);
    EXPECT_GE(b, prev) << "ns=" << ns;
    EXPECT_LT(b, kSchedLatencyBuckets);
    prev = b;
  }
  EXPECT_EQ(sched_latency_bucket(std::int64_t{1} << 62),
            kSchedLatencyBuckets - 1);
}

TEST(SchedLatencyBuckets, QuarterOctaveLayout) {
  // Bucket 4*o + s covers [(1 + s/4) * 2^o, (1 + (s+1)/4) * 2^o).
  EXPECT_EQ(sched_latency_bucket(16), 16);   // o=4, s=0
  EXPECT_EQ(sched_latency_bucket(19), 16);   // still below 20
  EXPECT_EQ(sched_latency_bucket(20), 17);   // o=4, s=1
  EXPECT_EQ(sched_latency_bucket(31), 19);   // top of octave 4
  EXPECT_EQ(sched_latency_bucket(32), 20);   // o=5, s=0
  EXPECT_DOUBLE_EQ(sched_latency_bucket_upper_ns(16), 20.0);
  EXPECT_DOUBLE_EQ(sched_latency_bucket_upper_ns(19), 32.0);
  // Upper bounds are strictly increasing; a sample always sits below its
  // bucket's bound.
  for (int b = 1; b < kSchedLatencyBuckets; ++b)
    EXPECT_GT(sched_latency_bucket_upper_ns(b),
              sched_latency_bucket_upper_ns(b - 1));
}

TEST(SchedulingStats, MeanAndQuantilesFromHistogram) {
  SchedulingStats s;
  EXPECT_DOUBLE_EQ(s.mean_ns(), 0.0);
  EXPECT_DOUBLE_EQ(s.median_ns(), 0.0);
  // 10 samples in bucket 16 (upper 20 ns), 30 in bucket 20 (upper 40 ns).
  s.hist[16] = 10;
  s.hist[20] = 30;
  s.decisions = 40;
  s.latency_ns_total = 10 * 18 + 30 * 33;
  EXPECT_DOUBLE_EQ(s.mean_ns(), (10.0 * 18 + 30.0 * 33) / 40.0);
  // Linear interpolation inside the crossing bucket: bucket 16 spans
  // [16, 20) ns, bucket 20 spans [32, 40) ns.
  EXPECT_DOUBLE_EQ(s.quantile_ns(0.1), 16.0 + 4.0 * (4.0 / 10.0));
  EXPECT_DOUBLE_EQ(s.median_ns(), 32.0 + 8.0 * (10.0 / 30.0));
  EXPECT_DOUBLE_EQ(s.quantile_ns(1.0), 40.0);  // frac 1.0: the upper bound
}

// ------------------------------------------------------ shared fixture

class SchedPolicyTest : public ::testing::Test {
 protected:
  SchedPolicyTest()
      : db_(small_db()), grid_(apec::EnergyGrid::wavelength(5.0, 40.0, 48)),
        calc_(db_, grid_, kernel_options()) {}

  static atomic::DatabaseConfig small_db() {
    atomic::DatabaseConfig cfg;
    cfg.max_z = 8;
    cfg.levels = {2, true};
    return cfg;
  }
  static apec::CalcOptions kernel_options() {
    apec::CalcOptions opt;
    opt.integration.adaptive = false;  // same math on both paths
    return opt;
  }

  std::vector<SpectralTask> tasks_for(TaskGranularity g) const {
    const apec::GridPoint pt{0.5, 1.0, 0.0, 0};
    const auto pops = apec::solve_populations(db_, pt);
    return make_tasks(calc_, pt, pops, g);
  }

  atomic::AtomicDatabase db_;
  apec::EnergyGrid grid_;
  apec::SpectrumCalculator calc_;
};

TEST_F(SchedPolicyTest, OnlyDynamicMinLoadIsAccepted) {
  EXPECT_NE(SchedulingPolicy::make(SchedulingPolicyKind::dynamic_min_load),
            nullptr);
  const auto retired = static_cast<SchedulingPolicyKind>(1);
  EXPECT_THROW(SchedulingPolicy::make(retired), std::invalid_argument);
  HybridConfig cfg;
  cfg.devices = 1;
  cfg.scheduling_policy = retired;
  EXPECT_THROW(HybridExecutor(calc_, cfg), std::invalid_argument);
}

TEST_F(SchedPolicyTest, NoDevicesEveryPolicyFallsBackToCpu) {
  ShmRegion region = ShmRegion::create_inprocess(0, 4);
  const auto tasks = tasks_for(TaskGranularity::ion);
  TaskScheduler sched(region.view());
  auto policy = SchedulingPolicy::make(SchedulingPolicyKind::dynamic_min_load);
  for (const auto& t : tasks) EXPECT_EQ(timed_assign(*policy, t, sched), -1);
  // Every verdict is still counted (and clocked) exactly once.
  EXPECT_EQ(sched.stats().cpu_fallbacks,
            static_cast<std::int64_t>(tasks.size()));
  EXPECT_EQ(sched.stats().gpu_allocations, 0);
  EXPECT_EQ(read_scheduling_stats(region.view()).decisions,
            static_cast<std::int64_t>(tasks.size()));
}

TEST_F(SchedPolicyTest, QuarantinedDeviceNeverAssignedByAnyPolicy) {
  const auto tasks = tasks_for(TaskGranularity::ion);
  ShmRegion region = ShmRegion::create_inprocess(2, 1024);
  TaskScheduler sched(region.view());
  sched.report_task_fault(0, /*fatal=*/true);
  auto policy = SchedulingPolicy::make(SchedulingPolicyKind::dynamic_min_load);
  for (const auto& t : tasks) {
    const int d = policy->assign(t, sched);
    EXPECT_EQ(d, 1);
    if (d >= 0) sched.sche_free(d);
  }
  EXPECT_EQ(sched.history(0), 0);
}

TEST_F(SchedPolicyTest, ServicePathIdenticalSpectraAndSurfacesSchedStats) {
  const std::vector<apec::GridPoint> points{{0.4, 1.0, 0.0, 0},
                                            {0.9, 1.0, 0.0, 1}};
  service::ServiceConfig cfg;
  cfg.hybrid.ranks = 2;
  cfg.hybrid.devices = 2;
  cfg.hybrid.max_queue_length = 32;
  service::SpectralService svc(calc_, cfg);
  const service::ServiceReply reply = svc.submit(points).wait();
  EXPECT_GT(reply.stats.sched.decisions, 0);
  EXPECT_GT(reply.stats.sched.median_ns(), 0.0);
  // The service threads the same decision site as a direct run, so a cold
  // request reproduces HybridDriver bit for bit.
  const HybridResult direct = HybridDriver(calc_, cfg.hybrid).run(points);
  EXPECT_EQ(reply.stats.sched.decisions,
            static_cast<std::int64_t>(direct.tasks_total));
  ASSERT_EQ(reply.spectra.size(), direct.spectra.size());
  for (std::size_t p = 0; p < direct.spectra.size(); ++p)
    for (std::size_t b = 0; b < direct.spectra[p].bin_count(); ++b)
      ASSERT_EQ(reply.spectra[p][b], direct.spectra[p][b])
          << "point " << p << " bin " << b;
}

TEST_F(SchedPolicyTest, RankStartHookStagedContentionKeepsExactlyOnce) {
  // One device, one-slot queue, rank 1 held until rank 0 has claimed work:
  // both ranks then contend on the same queue, so allocations overflow to
  // the CPU under pressure. Accounting must stay exactly-once regardless,
  // and the spectra one rank's bits: the CPU path runs the kernel rule.
  const std::vector<apec::GridPoint> points{{0.3, 1.0, 0.0, 0},
                                            {0.5, 1.0, 0.0, 1},
                                            {0.7, 1.0, 0.0, 2},
                                            {0.9, 1.0, 0.0, 3}};
  HybridConfig cfg;
  cfg.ranks = 2;
  cfg.devices = 1;
  cfg.max_queue_length = 1;
  const std::int64_t total = static_cast<std::int64_t>(points.size());
  cfg.rank_start_hook = [&](int rank, const PointWorkQueue& queue) {
    if (rank == 0) return;
    while (queue.remaining() == total) std::this_thread::yield();
  };
  const HybridResult res = HybridDriver(calc_, cfg).run(points);
  EXPECT_EQ(res.spectra.size(), points.size());
  EXPECT_EQ(res.sched.decisions, static_cast<std::int64_t>(res.tasks_total));
  EXPECT_EQ(res.scheduling.gpu_allocations + res.scheduling.cpu_fallbacks,
            static_cast<std::int64_t>(res.tasks_total));
  std::int64_t history_total = 0;
  for (auto h : res.history) history_total += h;
  EXPECT_EQ(history_total, res.scheduling.gpu_allocations);

  cfg.ranks = 1;
  cfg.rank_start_hook = nullptr;
  const HybridResult one = HybridDriver(calc_, cfg).run(points);
  for (std::size_t p = 0; p < points.size(); ++p)
    for (std::size_t b = 0; b < one.spectra[p].bin_count(); ++b)
      ASSERT_EQ(one.spectra[p][b], res.spectra[p][b])
          << "point " << p << " bin " << b;
}

// -------------------------------------- randomized seeded task streams

TEST_F(SchedPolicyTest, RandomizedStreamsKeepInvariants) {
  // ~200 seeded iterations over random device counts, queue caps, thread
  // counts and quarantine choices. Invariants after each run:
  //   * every task gets exactly one verdict (no lost / duplicated tasks);
  //   * every load drains back to zero (each reservation freed once);
  //   * the latency histogram counts exactly the tasks processed;
  //   * a device quarantined before the stream is never assigned.
  const auto ion_tasks = tasks_for(TaskGranularity::ion);
  ASSERT_GT(ion_tasks.size(), 8u);
  for (int iter = 0; iter < 200; ++iter) {
    std::mt19937 rng(7000u + static_cast<unsigned>(iter));
    const int n_dev = 1 + static_cast<int>(rng() % 4);
    const int n_threads = 1 + static_cast<int>(rng() % 4);
    const std::int32_t lmax = 1 + static_cast<std::int32_t>(rng() % 4);
    const int quarantined =
        (n_dev > 1 && rng() % 3 == 0) ? static_cast<int>(rng() % n_dev) : -1;

    ShmRegion region = ShmRegion::create_inprocess(n_dev, lmax);
    if (quarantined >= 0) {
      TaskScheduler admin(region.view());
      admin.report_task_fault(quarantined, /*fatal=*/true);
    }
    auto policy =
        SchedulingPolicy::make(SchedulingPolicyKind::dynamic_min_load);

    std::atomic<std::int64_t> gpu_verdicts{0};
    std::atomic<std::int64_t> cpu_verdicts{0};
    std::atomic<bool> quarantine_violated{false};
    std::vector<std::thread> threads;
    std::size_t expected_tasks = 0;
    for (int t = 0; t < n_threads; ++t) {
      const std::size_t n_tasks = 8 + rng() % (ion_tasks.size() - 8);
      const unsigned thread_seed = rng();
      expected_tasks += n_tasks;
      threads.emplace_back([&, n_tasks, thread_seed] {
        std::mt19937 trng(thread_seed);
        TaskScheduler sched(region.view());
        for (std::size_t i = 0; i < n_tasks; ++i) {
          const SpectralTask& task = ion_tasks[trng() % ion_tasks.size()];
          const int device = timed_assign(*policy, task, sched);
          if (device < 0) {
            cpu_verdicts.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (device == quarantined)
            quarantine_violated.store(true, std::memory_order_relaxed);
          gpu_verdicts.fetch_add(1, std::memory_order_relaxed);
          if ((trng() & 1u) != 0) std::this_thread::yield();
          sched.sche_free(device);
        }
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_FALSE(quarantine_violated.load(std::memory_order_relaxed))
        << "iter " << iter;
    EXPECT_EQ(gpu_verdicts.load(std::memory_order_relaxed) +
                  cpu_verdicts.load(std::memory_order_relaxed),
              static_cast<std::int64_t>(expected_tasks))
        << "iter " << iter;
    const SchedulingStats stats = read_scheduling_stats(region.view());
    EXPECT_EQ(stats.decisions, static_cast<std::int64_t>(expected_tasks))
        << "iter " << iter;
    for (int d = 0; d < n_dev; ++d)
      EXPECT_EQ(region.view().load[d].load(std::memory_order_acquire), 0)
          << "iter " << iter << " device " << d;
    if (quarantined >= 0)
      EXPECT_EQ(
          region.view().history[quarantined].load(std::memory_order_relaxed),
          0)
          << "iter " << iter;
  }
}

// ----------------------------------------- autotuner-race regression

TEST(SchedulerAutotunerRace, RetuneRacesAllocAssignScans) {
  // Regression pin for the atomic max_queue_length fix: the autotuner
  // retunes the cap while ranks run min-load scans, both through sche_alloc
  // directly and through the policy's assign(), and free what they took.
  // Non-atomic access here is a TSan report (the sanitizer CI runs this
  // suite); the assertions keep the scheduler's accounting invariants on
  // top. The tuner only grows the cap so in-flight reservations can never
  // exceed the bound in force at free time.
  constexpr int kWorkers = 4;
  constexpr int kIterations = 3000;
  ShmRegion region = ShmRegion::create_inprocess(4, 4);
  auto policy = SchedulingPolicy::make(SchedulingPolicyKind::dynamic_min_load);
  std::atomic<int> workers_done{0};
  std::thread tuner([&] {
    TaskScheduler sched(region.view());
    std::int32_t len = 4;
    while (workers_done.load(std::memory_order_acquire) < kWorkers) {
      if (len < (1 << 24)) ++len;  // monotone growth, bounded
      sched.set_max_queue_length(len);
    }
  });
  std::vector<std::thread> workers;
  std::atomic<std::int64_t> completed{0};
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      TaskScheduler sched(region.view());
      const SpectralTask task;
      for (int i = 0; i < kIterations; ++i) {
        const int alloc_dev = sched.sche_alloc();
        const int assign_dev = policy->assign(task, sched);
        if (assign_dev >= 0) sched.sche_free(assign_dev);
        if (alloc_dev >= 0) sched.sche_free(alloc_dev);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      workers_done.fetch_add(1, std::memory_order_release);
    });
  }
  tuner.join();
  for (auto& th : workers) th.join();
  EXPECT_EQ(completed.load(std::memory_order_relaxed),
            std::int64_t{kWorkers} * kIterations);
  for (int d = 0; d < 4; ++d)
    EXPECT_EQ(region.view().load[d].load(std::memory_order_acquire), 0);
  EXPECT_GE(region.view().max_queue_length.load(std::memory_order_relaxed), 4);
}

}  // namespace
