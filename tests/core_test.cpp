// Tests for the paper's contribution: Algorithm 1 (scheduler policy, live
// scheduler, shared memory), task model, autotuner, and the hybrid driver's
// numerical equivalence to the serial baseline.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apec/calculator.h"
#include "core/autotune.h"
#include "core/hybrid.h"
#include "core/hybrid_executor.h"
#include "core/scheduler.h"
#include "core/shm.h"
#include "core/task.h"
#include "service/service.h"
#include "util/fault.h"
#include "util/statistics.h"

namespace {

using namespace hspec;
using namespace hspec::core;

// ------------------------------------------------------------ pick_device

TEST(PickDevice, ChoosesMinimumLoad) {
  const std::int32_t loads[] = {3, 1, 2};
  const std::int64_t hist[] = {10, 10, 10};
  EXPECT_EQ(pick_device(loads, hist, 8), 1);
}

TEST(PickDevice, TieBreaksByMinimumHistory) {
  const std::int32_t loads[] = {2, 2, 2};
  const std::int64_t hist[] = {30, 10, 20};
  EXPECT_EQ(pick_device(loads, hist, 8), 1);
}

TEST(PickDevice, FirstWinsFullTie) {
  const std::int32_t loads[] = {1, 1};
  const std::int64_t hist[] = {5, 5};
  EXPECT_EQ(pick_device(loads, hist, 8), 0);
}

TEST(PickDevice, FullQueuesRejected) {
  const std::int32_t loads[] = {4, 4};
  const std::int64_t hist[] = {1, 2};
  EXPECT_EQ(pick_device(loads, hist, 4), -1);
  EXPECT_EQ(pick_device(loads, hist, 5), 0);
}

TEST(PickDevice, EmptyAndMismatchedInputs) {
  EXPECT_EQ(pick_device({}, {}, 4), -1);
  const std::int32_t loads[] = {0};
  const std::int64_t hist[] = {0, 0};
  EXPECT_EQ(pick_device(loads, hist, 4), -1);
}

// ------------------------------------------------------------------ shm

TEST(Shm, InProcessInitialization) {
  ShmRegion region = ShmRegion::create_inprocess(3, 10);
  SchedulerShm& shm = region.view();
  EXPECT_EQ(shm.device_count, 3);
  EXPECT_EQ(shm.max_queue_length, 10);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(shm.load[d].load(), 0);
    EXPECT_EQ(shm.history[d].load(), 0);
  }
}

TEST(Shm, PosixCreateAttachRoundTrip) {
  const std::string name = "/hspec_test_shm_" + std::to_string(::getpid());
  ShmRegion owner = ShmRegion::create_posix(name, 2, 6);
  owner.view().load[1].store(4);

  ShmRegion attached = ShmRegion::attach_posix(name);
  EXPECT_EQ(attached.view().device_count, 2);
  EXPECT_EQ(attached.view().max_queue_length, 6);
  EXPECT_EQ(attached.view().load[1].load(), 4);
  // Writes are visible both ways (same physical pages).
  attached.view().history[0].store(99);
  EXPECT_EQ(owner.view().history[0].load(), 99);
}

TEST(Shm, PosixDuplicateCreateFails) {
  const std::string name = "/hspec_test_shm_dup_" + std::to_string(::getpid());
  ShmRegion owner = ShmRegion::create_posix(name, 1, 2);
  EXPECT_THROW(ShmRegion::create_posix(name, 1, 2), std::runtime_error);
}

TEST(Shm, UnlinkedAfterOwnerDestroyed) {
  const std::string name = "/hspec_test_shm_gone_" + std::to_string(::getpid());
  { ShmRegion owner = ShmRegion::create_posix(name, 1, 2); }
  EXPECT_THROW(ShmRegion::attach_posix(name), std::runtime_error);
}

TEST(Shm, AttachToMissingSegmentFails) {
  const std::string name =
      "/hspec_test_shm_never_" + std::to_string(::getpid());
  EXPECT_THROW(ShmRegion::attach_posix(name), std::runtime_error);
}

TEST(Shm, AttachAfterExplicitUnlinkFails) {
  // Unlink removes the name immediately, but the owner's mapping stays valid
  // until it unmaps (POSIX shm follows file semantics). New ranks must get a
  // clean error instead of silently creating a fresh, empty segment.
  const std::string name =
      "/hspec_test_shm_unlinked_" + std::to_string(::getpid());
  ShmRegion owner = ShmRegion::create_posix(name, 2, 4);
  owner.view().load[0].store(7);
  ASSERT_EQ(::shm_unlink(name.c_str()), 0);
  EXPECT_THROW(ShmRegion::attach_posix(name), std::runtime_error);
  // The live mapping is unaffected by the unlink.
  EXPECT_EQ(owner.view().load[0].load(), 7);
  EXPECT_EQ(owner.view().device_count, 2);
}

// ------------------------------------------------------- PointWorkQueue

TEST(Shm, PointQueueStaticSeedMatchesOldSplit) {
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  PointWorkQueue& q = region.view().points;
  q.initialize(10, 3, 2);
  // Seed ranges are the old near-equal contiguous split: 4/3/3.
  EXPECT_EQ(q.range_begin[0], 0);
  EXPECT_EQ(q.range_end[0], 4);
  EXPECT_EQ(q.range_begin[1], 4);
  EXPECT_EQ(q.range_end[1], 7);
  EXPECT_EQ(q.range_begin[2], 7);
  EXPECT_EQ(q.range_end[2], 10);
  EXPECT_EQ(q.remaining(), 10);
}

TEST(Shm, PointQueueClaimsOwnRangeThenSteals) {
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  PointWorkQueue& q = region.view().points;
  q.initialize(6, 2, 2);
  // Rank 0 drains its own range [0, 3) in chunks of 2...
  auto c = q.claim(0);
  EXPECT_EQ(c.begin, 0);
  EXPECT_EQ(c.end, 2);
  EXPECT_FALSE(c.stolen);
  c = q.claim(0);
  EXPECT_EQ(c.begin, 2);
  EXPECT_EQ(c.end, 3);
  EXPECT_FALSE(c.stolen);
  // ...then steals rank 1's untouched range [3, 6).
  c = q.claim(0);
  EXPECT_EQ(c.begin, 3);
  EXPECT_TRUE(c.stolen);
  EXPECT_EQ(q.steals.load(), 1);
  EXPECT_EQ(q.stolen_points.load(), c.end - c.begin);
  // Invalid ranks claim nothing.
  EXPECT_TRUE(q.claim(-1).empty());
  EXPECT_TRUE(q.claim(2).empty());
}

TEST(Shm, PointQueueEveryPointClaimedExactlyOnceUnderContention) {
  constexpr std::int64_t kPoints = 4000;
  constexpr int kRanks = 8;
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  PointWorkQueue& q = region.view().points;
  q.initialize(kPoints, kRanks, 3);

  std::vector<std::atomic<int>> seen(kPoints);
  for (auto& s : seen) s.store(0);
  std::atomic<int> finished{0};
  std::vector<std::thread> workers;
  for (int r = 0; r < kRanks; ++r) {
    workers.emplace_back([&, r] {
      // Rank 0 never touches its own range until every other rank finished,
      // so thieves must drain it: steals are guaranteed, not just likely.
      if (r == 0) {
        while (finished.load() < kRanks - 1) std::this_thread::yield();
      }
      for (auto c = q.claim(r); !c.empty(); c = q.claim(r))
        for (std::int64_t p = c.begin; p < c.end; ++p)
          seen[static_cast<std::size_t>(p)].fetch_add(1);
      finished.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();

  for (std::int64_t p = 0; p < kPoints; ++p)
    ASSERT_EQ(seen[static_cast<std::size_t>(p)].load(), 1) << "point " << p;
  EXPECT_EQ(q.remaining(), 0);
  EXPECT_GT(q.steals.load(), 0);
  EXPECT_GT(q.stolen_points.load(), 0);
}

TEST(Shm, PointQueueHandlesFewerPointsThanRanks) {
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  PointWorkQueue& q = region.view().points;
  q.initialize(2, 5, 1);
  int claimed = 0;
  for (int r = 0; r < 5; ++r)
    for (auto c = q.claim(r); !c.empty(); c = q.claim(r))
      claimed += static_cast<int>(c.end - c.begin);
  EXPECT_EQ(claimed, 2);
  EXPECT_EQ(q.remaining(), 0);
}

TEST(Shm, ValidatesArguments) {
  EXPECT_THROW(ShmRegion::create_inprocess(-1, 4), std::invalid_argument);
  EXPECT_THROW(ShmRegion::create_inprocess(kMaxDevices + 1, 4),
               std::invalid_argument);
  EXPECT_THROW(ShmRegion::create_inprocess(2, 0), std::invalid_argument);
}

TEST(Shm, SchedulerInitializeValidatesBounds) {
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  SchedulerShm& shm = region.view();
  EXPECT_THROW(shm.initialize(-1, 4), std::invalid_argument);
  EXPECT_THROW(shm.initialize(kMaxDevices + 1, 4), std::invalid_argument);
  EXPECT_THROW(shm.initialize(2, 0), std::invalid_argument);
  // Boundary values are accepted.
  EXPECT_NO_THROW(shm.initialize(kMaxDevices, 1));
  EXPECT_EQ(shm.device_count, kMaxDevices);
}

TEST(Shm, PointQueueInitializeValidatesBounds) {
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  PointWorkQueue& q = region.view().points;
  EXPECT_THROW(q.initialize(10, -1, 2), std::invalid_argument);
  EXPECT_THROW(q.initialize(10, kMaxRanks + 1, 2), std::invalid_argument);
  EXPECT_THROW(q.initialize(-1, 2, 2), std::invalid_argument);
  EXPECT_THROW(q.initialize(10, 0, 2), std::invalid_argument);  // points, no ranks
  EXPECT_THROW(q.initialize(10, 2, 0), std::invalid_argument);
  // Boundary values are accepted: zero points with zero ranks (the
  // SchedulerShm::initialize default) and the maximum rank count.
  EXPECT_NO_THROW(q.initialize(0, 0, 1));
  EXPECT_NO_THROW(q.initialize(10, kMaxRanks, 1));
  EXPECT_EQ(q.remaining(), 10);
}

// ------------------------------------------------------------- TaskScheduler

TEST(Scheduler, AllocFreeLifecycle) {
  ShmRegion region = ShmRegion::create_inprocess(2, 2);
  TaskScheduler sched(region.view());
  EXPECT_EQ(sched.sche_alloc(), 0);
  EXPECT_EQ(sched.sche_alloc(), 1);  // min-history tie-break spreads load
  EXPECT_EQ(sched.sche_alloc(), 0);
  EXPECT_EQ(sched.sche_alloc(), 1);
  EXPECT_EQ(sched.sche_alloc(), -1);  // both full
  EXPECT_EQ(sched.load(0), 2);
  EXPECT_EQ(sched.history(0), 2);
  sched.sche_free(0);
  EXPECT_EQ(sched.load(0), 1);
  EXPECT_EQ(sched.sche_alloc(), 0);
  EXPECT_EQ(sched.stats().gpu_allocations, 5);
  EXPECT_EQ(sched.stats().cpu_fallbacks, 1);
  EXPECT_NEAR(sched.stats().gpu_task_ratio(), 5.0 / 6.0, 1e-12);
}

TEST(Scheduler, HistoryPersistsAcrossFrees) {
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  TaskScheduler sched(region.view());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(sched.sche_alloc(), 0);
    sched.sche_free(0);
  }
  EXPECT_EQ(sched.history(0), 3);
  EXPECT_EQ(sched.load(0), 0);
}

TEST(Scheduler, NoDevicesAlwaysCpu) {
  ShmRegion region = ShmRegion::create_inprocess(0, 4);
  TaskScheduler sched(region.view());
  EXPECT_EQ(sched.sche_alloc(), -1);
  EXPECT_EQ(sched.stats().cpu_fallbacks, 1);
}

TEST(Scheduler, FreeWithoutAllocThrows) {
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  TaskScheduler sched(region.view());
  EXPECT_THROW(sched.sche_free(0), std::logic_error);
  EXPECT_THROW(sched.sche_free(5), std::out_of_range);
  EXPECT_THROW(sched.load(9), std::out_of_range);
  EXPECT_THROW(sched.history(-1), std::out_of_range);
}

TEST(Scheduler, MaxQueueLengthAdjustable) {
  ShmRegion region = ShmRegion::create_inprocess(1, 1);
  TaskScheduler sched(region.view());
  EXPECT_EQ(sched.sche_alloc(), 0);
  EXPECT_EQ(sched.sche_alloc(), -1);
  sched.set_max_queue_length(2);
  EXPECT_EQ(sched.sche_alloc(), 0);
  EXPECT_THROW(sched.set_max_queue_length(0), std::invalid_argument);
}

TEST(Scheduler, ConcurrentAllocNeverExceedsBound) {
  // Property: under heavy contention the per-device load never exceeds the
  // maximum queue length, and every successful alloc is eventually freed.
  constexpr int kDevices = 3;
  constexpr int kMaxLen = 5;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 2'000;

  ShmRegion region = ShmRegion::create_inprocess(kDevices, kMaxLen);
  std::atomic<bool> violation{false};
  std::atomic<std::int64_t> gpu_total{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      TaskScheduler sched(region.view());
      for (int i = 0; i < kItersPerThread; ++i) {
        const int dev = sched.sche_alloc();
        if (dev >= 0) {
          for (int d = 0; d < kDevices; ++d) {
            const auto l = region.view().load[d].load();
            if (l < 0 || l > kMaxLen) violation = true;
          }
          ++gpu_total;
          sched.sche_free(dev);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(violation.load());
  for (int d = 0; d < kDevices; ++d)
    EXPECT_EQ(region.view().load[d].load(), 0);
  std::int64_t history_total = 0;
  for (int d = 0; d < kDevices; ++d)
    history_total += region.view().history[d].load();
  EXPECT_EQ(history_total, gpu_total.load());
}

// -------------------------------------------------- TaskScheduler health

TEST(SchedulerHealth, DegradesThenQuarantinesOnConsecutiveFaults) {
  ShmRegion region = ShmRegion::create_inprocess(2, 4);
  TaskScheduler sched(region.view());
  EXPECT_EQ(sched.health(0), DeviceHealth::healthy);
  // Defaults from SchedulerShm::initialize: degrade after 2, quarantine
  // after 5 consecutive faults.
  EXPECT_EQ(sched.report_task_fault(0), DeviceHealth::healthy);
  EXPECT_EQ(sched.report_task_fault(0), DeviceHealth::degraded);
  EXPECT_EQ(sched.stats().degradations, 1);
  // A success resets the streak and completes the recovery.
  sched.report_task_success(0);
  EXPECT_EQ(sched.health(0), DeviceHealth::healthy);
  EXPECT_EQ(sched.stats().recoveries, 1);
  // Five consecutive faults pass through degraded into quarantine.
  for (int i = 0; i < 5; ++i) sched.report_task_fault(0);
  EXPECT_EQ(sched.health(0), DeviceHealth::quarantined);
  EXPECT_EQ(sched.stats().degradations, 2);
  EXPECT_EQ(sched.stats().quarantines, 1);
  // A stale success must not resurrect a quarantined device.
  sched.report_task_success(0);
  EXPECT_EQ(sched.health(0), DeviceHealth::quarantined);
  // The other device never saw a fault.
  EXPECT_EQ(sched.health(1), DeviceHealth::healthy);
  EXPECT_THROW(sched.health(2), std::out_of_range);
  EXPECT_THROW(sched.health(-1), std::out_of_range);
}

TEST(SchedulerHealth, FatalFaultQuarantinesImmediately) {
  ShmRegion region = ShmRegion::create_inprocess(2, 2);
  TaskScheduler sched(region.view());
  EXPECT_EQ(sched.report_task_fault(0, /*fatal=*/true),
            DeviceHealth::quarantined);
  EXPECT_EQ(sched.stats().quarantines, 1);
  EXPECT_EQ(sched.stats().degradations, 0);
  // sche_alloc treats the quarantined device like a full queue: the
  // survivor takes everything, then the CPU.
  EXPECT_EQ(sched.sche_alloc(), 1);
  EXPECT_EQ(sched.sche_alloc(), 1);
  EXPECT_EQ(sched.sche_alloc(), -1);
  EXPECT_FALSE(sched.all_quarantined());
}

TEST(SchedulerHealth, AllQuarantinedDrainsToCpu) {
  ShmRegion region = ShmRegion::create_inprocess(2, 4);
  TaskScheduler sched(region.view());
  sched.report_task_fault(0, true);
  sched.report_task_fault(1, true);
  EXPECT_TRUE(sched.all_quarantined());
  EXPECT_EQ(sched.sche_alloc(), -1);
  EXPECT_EQ(sched.stats().cpu_fallbacks, 1);
  // Zero devices is not "all quarantined" — that verdict routes tasks to
  // the degraded kernel path, which is wrong for a deliberately CPU-only
  // run.
  ShmRegion none = ShmRegion::create_inprocess(0, 4);
  TaskScheduler cpu_only(none.view());
  EXPECT_FALSE(cpu_only.all_quarantined());
}

TEST(SchedulerHealth, ReadmissionPutsDeviceOnProbation) {
  ShmRegion region = ShmRegion::create_inprocess(1, 4);
  TaskScheduler sched(region.view());
  EXPECT_FALSE(sched.readmit(0));  // healthy: nothing to readmit
  sched.report_task_fault(0, true);
  EXPECT_EQ(sched.sche_alloc(), -1);
  EXPECT_TRUE(sched.readmit(0));
  EXPECT_EQ(sched.health(0), DeviceHealth::degraded);
  EXPECT_EQ(sched.stats().readmissions, 1);
  EXPECT_EQ(sched.sche_alloc(), 0);  // degraded devices are allocatable
  sched.sche_free(0);
  // A clean task during probation completes the recovery.
  sched.report_task_success(0);
  EXPECT_EQ(sched.health(0), DeviceHealth::healthy);
  EXPECT_EQ(sched.stats().recoveries, 1);
  EXPECT_FALSE(sched.readmit(0));
}

TEST(SchedulerHealth, QueueFullRacingDeviceDeath) {
  // The device dies while its queue is full: draining the queue must not
  // make it allocatable again, and readmission must.
  ShmRegion region = ShmRegion::create_inprocess(1, 2);
  TaskScheduler sched(region.view());
  ASSERT_EQ(sched.sche_alloc(), 0);
  ASSERT_EQ(sched.sche_alloc(), 0);
  ASSERT_EQ(sched.sche_alloc(), -1);  // full
  sched.report_task_fault(0, true);   // death races the full queue
  sched.sche_free(0);
  sched.sche_free(0);
  EXPECT_EQ(sched.load(0), 0);
  EXPECT_EQ(sched.sche_alloc(), -1);  // empty but quarantined
  EXPECT_TRUE(sched.readmit(0));
  EXPECT_EQ(sched.sche_alloc(), 0);
}

TEST(SchedulerHealth, HealthNamesRoundTrip) {
  EXPECT_STREQ(to_string(DeviceHealth::healthy), "healthy");
  EXPECT_STREQ(to_string(DeviceHealth::degraded), "degraded");
  EXPECT_STREQ(to_string(DeviceHealth::quarantined), "quarantined");
}

// ------------------------------------------------------------------ autotune

TEST(Autotune, FindsTheKneeOfAConvexCurve) {
  // Synthetic Fig. 4 curve: improves to q=10 then degrades.
  auto measure = [](int q) {
    return 100.0 + 200.0 / q + (q > 10 ? 3.0 * (q - 10) : 0.0);
  };
  const auto r = autotune_max_queue_length(measure);
  EXPECT_EQ(r.best_max_queue_length, 10);
  EXPECT_GE(r.probes.size(), 5u);
}

TEST(Autotune, MonotoneCurvePicksLargestProbed) {
  auto measure = [](int q) { return 1000.0 / q; };
  AutotuneOptions opt;
  opt.max_queue_length = 16;
  const auto r = autotune_max_queue_length(measure, opt);
  EXPECT_EQ(r.best_max_queue_length, 16);
}

TEST(Autotune, StopsEarlyAfterInflexion) {
  int calls = 0;
  auto measure = [&](int q) {
    ++calls;
    return q <= 6 ? 100.0 - q : 200.0 + 10.0 * q;  // sharp inflexion at 6
  };
  AutotuneOptions opt;
  opt.max_queue_length = 32;
  const auto r = autotune_max_queue_length(measure, opt);
  EXPECT_EQ(r.best_max_queue_length, 6);
  EXPECT_LT(calls, 16);  // did not probe the whole range
}

TEST(Autotune, ValidatesOptions) {
  auto measure = [](int) { return 1.0; };
  AutotuneOptions bad;
  bad.step = 0;
  EXPECT_THROW(autotune_max_queue_length(measure, bad), std::invalid_argument);
}

// ----------------------------------------------------------------- task model

TEST(TaskModel, GranularityNames) {
  EXPECT_EQ(to_string(TaskGranularity::ion), "Ion");
  EXPECT_EQ(to_string(TaskGranularity::level), "Level");
}

TEST(TaskModel, WorkloadArithmetic) {
  WorkloadParams w;
  w.ions_per_point = 496;
  w.avg_levels_per_ion = 4;
  w.bins_per_level = 50'000;
  EXPECT_EQ(w.integrals_per_ion_task(), 200'000u);
  EXPECT_EQ(w.integrals_per_point(), 99'200'000u);  // ~1e8, paper: "up to 2e8"
}

// -------------------------------------------------------------- hybrid driver

class HybridTest : public ::testing::Test {
 protected:
  HybridTest()
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

  double worst_relative_difference(const apec::Spectrum& a,
                                   const apec::Spectrum& b) const {
    return util::max_relative_error(a.values(), b.values(),
                                    1e-30 * std::max(a.peak(), 1e-300));
  }

  atomic::AtomicDatabase db_;
  apec::EnergyGrid grid_;
  apec::SpectrumCalculator calc_;
};

TEST_F(HybridTest, MakeTasksCountsMatchGranularity) {
  const apec::GridPoint pt{0.5, 1.0, 0.0, 0};
  const auto pops = apec::solve_populations(db_, pt);
  const auto ion_tasks = make_tasks(calc_, pt, pops, TaskGranularity::ion);
  const auto level_tasks = make_tasks(calc_, pt, pops, TaskGranularity::level);
  EXPECT_GT(ion_tasks.size(), 0u);
  // Level granularity multiplies RRC ions by their level count; free-free
  // stays a single task.
  std::size_t expected = 0;
  for (const auto& t : ion_tasks)
    expected += t.ion.emits_rrc() ? db_.level_count_for(t.ion) : 1;
  EXPECT_EQ(level_tasks.size(), expected);
}

void expect_bitwise_equal(const std::vector<apec::Spectrum>& a,
                          const std::vector<apec::Spectrum>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p)
    for (std::size_t i = 0; i < a[p].bin_count(); ++i)
      ASSERT_EQ(a[p][i], b[p][i]) << "point " << p << " bin " << i;
}

struct HybridCase {
  int ranks;
  int devices;
  TaskGranularity granularity;
};

class HybridEquivalence : public HybridTest,
                          public ::testing::WithParamInterface<HybridCase> {};

TEST_P(HybridEquivalence, MatchesSerialBaseline) {
  const auto [ranks, devices, granularity] = GetParam();
  const std::vector<apec::GridPoint> points{{0.3, 1.0, 0.0, 0},
                                            {0.8, 1.0, 0.0, 1}};
  // Every task runs the Simpson kernel rule, on a device or, without
  // devices, on the host.
  std::vector<apec::Spectrum> serial;
  for (const auto& pt : points) serial.push_back(calc_.calculate(pt));

  HybridConfig cfg;
  cfg.ranks = ranks;
  cfg.devices = devices;
  cfg.granularity = granularity;
  cfg.max_queue_length = 4;
  HybridDriver driver(calc_, cfg);
  const HybridResult res = driver.run(points);

  ASSERT_EQ(res.spectra.size(), 2u);
  if (devices == 0) {
    // The host runs the device's rule and add order: bitwise one device.
    // (The serial calculator adds level by level into the spectrum, so it
    // agrees only to rounding.)
    HybridConfig one;
    one.ranks = 1;
    one.devices = 1;
    one.granularity = granularity;
    expect_bitwise_equal(HybridDriver(calc_, one).run(points).spectra,
                         res.spectra);
  }
  for (std::size_t p = 0; p < points.size(); ++p)
    EXPECT_LT(worst_relative_difference(serial[p], res.spectra[p]), 1e-10)
        << "point " << p;
  EXPECT_GT(res.tasks_total, 0u);
  EXPECT_EQ(res.scheduling.gpu_allocations + res.scheduling.cpu_fallbacks,
            static_cast<std::int64_t>(res.tasks_total));
  // The latency histogram clocks every task exactly once.
  EXPECT_EQ(res.sched.decisions, static_cast<std::int64_t>(res.tasks_total));
  if (devices == 0) {
    EXPECT_EQ(res.scheduling.gpu_allocations, 0);
  } else {
    EXPECT_GT(res.scheduling.gpu_allocations, 0);
    std::int64_t history_total = 0;
    for (auto h : res.history) history_total += h;
    EXPECT_EQ(history_total, res.scheduling.gpu_allocations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HybridEquivalence,
    ::testing::Values(HybridCase{1, 1, TaskGranularity::ion},
                      HybridCase{4, 2, TaskGranularity::ion},
                      HybridCase{4, 0, TaskGranularity::ion},
                      HybridCase{2, 1, TaskGranularity::level},
                      HybridCase{4, 3, TaskGranularity::level},
                      HybridCase{8, 2, TaskGranularity::ion}));

TEST_F(HybridTest, DeviceStatsShowCoarseGranularityTransfers) {
  const std::vector<apec::GridPoint> points{{0.5, 1.0, 0.0, 0}};
  HybridConfig cfg;
  cfg.ranks = 2;
  cfg.devices = 1;
  cfg.mode = ExecutionMode::synchronous;
  HybridDriver driver(calc_, cfg);
  const HybridResult res = driver.run(points);
  ASSERT_EQ(res.device_stats.size(), 1u);
  const auto& st = res.device_stats[0];
  // Synchronous mode, ion granularity: one H2D (edges) and one D2H (emi)
  // per GPU task, and at least one kernel per level of each task.
  EXPECT_EQ(st.h2d_copies, st.d2h_copies);
  EXPECT_GE(st.kernels_launched, st.d2h_copies);
  EXPECT_GT(st.kernel_time_s, 0.0);
}

TEST_F(HybridTest, ResidentCacheEliminatesPerTaskUploads) {
  const std::vector<apec::GridPoint> points{{0.5, 1.0, 0.0, 0}};
  HybridConfig cfg;
  cfg.ranks = 2;
  cfg.devices = 1;
  cfg.mode = ExecutionMode::pipelined;
  HybridDriver driver(calc_, cfg);
  const HybridResult res = driver.run(points);
  ASSERT_EQ(res.device_stats.size(), 1u);
  const auto& st = res.device_stats[0];
  // The bin edges go up exactly once per device; every task still reads
  // its emissivity back, so D2H dwarfs H2D.
  EXPECT_EQ(st.h2d_copies, 1u);
  EXPECT_GT(st.d2h_copies, 1u);
  EXPECT_GT(st.cache_hits, 0u);
  EXPECT_GT(st.bytes_h2d_saved, 0u);
  EXPECT_GT(st.streams_used, 0u);
  EXPECT_GE(st.kernels_launched, st.d2h_copies);
  EXPECT_GT(res.virtual_makespan_s, 0.0);
}

TEST_F(HybridTest, InvalidConfigThrows) {
  HybridConfig bad;
  bad.ranks = 0;
  EXPECT_THROW(HybridDriver(calc_, bad), std::invalid_argument);
  HybridConfig bad2;
  bad2.max_queue_length = 0;
  EXPECT_THROW(HybridDriver(calc_, bad2), std::invalid_argument);
  HybridConfig bad3;
  bad3.max_task_attempts = 0;
  EXPECT_THROW(HybridDriver(calc_, bad3), std::invalid_argument);
  HybridConfig bad4;
  bad4.degrade_after = 3;
  bad4.quarantine_after = 2;  // must be >= degrade_after
  EXPECT_THROW(HybridDriver(calc_, bad4), std::invalid_argument);
}

// ------------------------------------------- a throwing rank fails cleanly

struct BadPoint {
  double kT_keV;
  int ranks;
  ExecutionMode mode;
};

/// Every rejection is a std::logic_error: std::invalid_argument for a kT
/// the populations refuse (non-finite or <= 0), std::domain_error for a
/// valid-looking kT whose spectrum comes out non-finite.
bool refused_by_populations(double kT_keV) {
  return !(std::isfinite(kT_keV) && kT_keV > 0.0);
}

void PrintTo(const BadPoint& c, std::ostream* os) {
  *os << "kT=" << c.kT_keV << " ranks=" << c.ranks
      << (c.mode == ExecutionMode::synchronous ? " sync" : " pipelined");
}

class BadPointBatch : public HybridTest,
                      public ::testing::WithParamInterface<BadPoint> {};

TEST_P(BadPointBatch, ThrowsThenNextBatchMatchesFreshRun) {
  // A non-finite or non-positive kT makes the populations throw in
  // whichever rank claims that point; a tiny positive kT gets through them
  // but yields a non-finite spectrum, which the rank refuses to publish.
  // The other ranks finish their points; the batch must then surface the
  // error rather than wait for the failed rank, and the same executor must
  // serve the next batch exactly like a fresh driver.
  const auto [kT, ranks, mode] = GetParam();
  HybridConfig cfg;
  cfg.ranks = ranks;
  cfg.devices = 2;
  cfg.mode = mode;
  HybridExecutor executor(calc_, cfg);
  const std::vector<apec::GridPoint> bad{{0.5, 1.0, 0.0, 0},
                                         {kT, 1.0, 0.0, 1}};
  if (refused_by_populations(kT)) {
    EXPECT_THROW(executor.run_batch(bad), std::invalid_argument);
  } else {
    EXPECT_THROW(executor.run_batch(bad), std::domain_error);
  }

  const std::vector<apec::GridPoint> good{{0.3, 1.0, 0.0, 0},
                                          {0.8, 1.0, 0.0, 1}};
  const HybridResult res = executor.run_batch(good);
  const HybridResult fresh = HybridDriver(calc_, cfg).run(good);
  EXPECT_EQ(res.tasks_total, fresh.tasks_total);
  // The failed batch's decisions do not leak into the next one.
  EXPECT_EQ(res.sched.decisions, static_cast<std::int64_t>(res.tasks_total));
  expect_bitwise_equal(res.spectra, fresh.spectra);
}

INSTANTIATE_TEST_SUITE_P(
    NonPositiveTemperature, BadPointBatch,
    ::testing::Values(BadPoint{-1.0, 2, ExecutionMode::synchronous},
                      BadPoint{-1.0, 2, ExecutionMode::pipelined},
                      BadPoint{-1.0, 4, ExecutionMode::synchronous},
                      BadPoint{-1.0, 4, ExecutionMode::pipelined},
                      BadPoint{0.0, 2, ExecutionMode::synchronous},
                      BadPoint{0.0, 2, ExecutionMode::pipelined},
                      BadPoint{0.0, 4, ExecutionMode::synchronous},
                      BadPoint{0.0, 4, ExecutionMode::pipelined}));

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    NonFiniteOrTinyTemperature, BadPointBatch,
    ::testing::Values(BadPoint{kNaN, 2, ExecutionMode::synchronous},
                      BadPoint{kNaN, 2, ExecutionMode::pipelined},
                      BadPoint{kNaN, 4, ExecutionMode::synchronous},
                      BadPoint{kNaN, 4, ExecutionMode::pipelined},
                      BadPoint{kInf, 2, ExecutionMode::synchronous},
                      BadPoint{kInf, 2, ExecutionMode::pipelined},
                      BadPoint{kInf, 4, ExecutionMode::synchronous},
                      BadPoint{kInf, 4, ExecutionMode::pipelined},
                      BadPoint{1e-10, 2, ExecutionMode::synchronous},
                      BadPoint{1e-10, 2, ExecutionMode::pipelined},
                      BadPoint{1e-10, 4, ExecutionMode::synchronous},
                      BadPoint{1e-10, 4, ExecutionMode::pipelined}));

// The same poison inputs as a batch's only point: the point's tasks are
// spread over every rank, so the failure strikes while other ranks hold
// (or are about to claim) its tasks. Nothing may wedge, every scheduler
// slot must come back, and the executor must serve the next batch exactly
// like a fresh driver.
class BadSinglePointBatch : public HybridTest,
                            public ::testing::WithParamInterface<BadPoint> {};

TEST_P(BadSinglePointBatch, ThrowsReleasesSlotsThenNextBatchMatchesFreshRun) {
  const auto [kT, ranks, mode] = GetParam();
  HybridConfig cfg;
  cfg.ranks = ranks;
  cfg.devices = 2;
  cfg.mode = mode;
  HybridExecutor executor(calc_, cfg);
  const std::vector<apec::GridPoint> bad{{kT, 1.0, 0.0, 0}};
  if (refused_by_populations(kT)) {
    EXPECT_THROW(executor.run_batch(bad), std::invalid_argument);
  } else {
    EXPECT_THROW(executor.run_batch(bad), std::domain_error);
  }
  for (int d = 0; d < executor.device_count(); ++d)
    EXPECT_EQ(executor.device_load(d), 0) << "device " << d;

  const std::vector<apec::GridPoint> good{{0.5, 1.0, 0.0, 0}};
  const HybridResult res = executor.run_batch(good);
  const HybridResult fresh = HybridDriver(calc_, cfg).run(good);
  EXPECT_EQ(res.tasks_total, fresh.tasks_total);
  EXPECT_EQ(res.sched.decisions, static_cast<std::int64_t>(res.tasks_total));
  expect_bitwise_equal(res.spectra, fresh.spectra);
  for (int d = 0; d < executor.device_count(); ++d)
    EXPECT_EQ(executor.device_load(d), 0) << "device " << d;
}

std::vector<BadPoint> single_point_cases() {
  std::vector<BadPoint> cases;
  for (double kT : {-1.0, 0.0, kNaN, kInf, 1e-10})
    for (int ranks : {2, 4})
      for (ExecutionMode mode :
           {ExecutionMode::synchronous, ExecutionMode::pipelined})
        cases.push_back({kT, ranks, mode});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(PoisonInputs, BadSinglePointBatch,
                         ::testing::ValuesIn(single_point_cases()));

// ------------------------------------------------- intra-point task sharing

struct SharingCase {
  int ranks;
  int devices;
  ExecutionMode mode;
};

void PrintTo(const SharingCase& c, std::ostream* os) {
  *os << "ranks=" << c.ranks << " devices=" << c.devices
      << (c.mode == ExecutionMode::synchronous ? " sync" : " pipelined");
}

class TaskSharing : public HybridTest,
                    public ::testing::WithParamInterface<SharingCase> {
 protected:
  HybridResult run(int ranks, int devices, ExecutionMode mode,
                   const std::vector<apec::GridPoint>& points) {
    HybridConfig cfg;
    cfg.ranks = ranks;
    cfg.devices = devices;
    cfg.mode = mode;
    // Deep enough that no verdict is a full queue, so every task is a GPU
    // allocation (asserted below).
    cfg.max_queue_length = 32;
    return HybridDriver(calc_, cfg).run(points);
  }
};

TEST_P(TaskSharing, MatchesOneRankBitwise) {
  // However the tasks of a point spread over the ranks, the owner adds
  // them in task order, so every configuration reproduces one rank.
  const auto [ranks, devices, mode] = GetParam();
  const std::vector<std::vector<apec::GridPoint>> batches{
      {{0.5, 1.0, 0.0, 0}},
      {{0.3, 1.0, 0.0, 0}, {0.5, 1.0, 0.0, 1}, {0.8, 1.0, 0.0, 2}}};
  for (const auto& points : batches) {
    const HybridResult one = run(1, 1, ExecutionMode::synchronous, points);
    const HybridResult res = run(ranks, devices, mode, points);
    expect_bitwise_equal(one.spectra, res.spectra);
    EXPECT_EQ(res.tasks_total, one.tasks_total);
    // Whoever runs a task makes its one Algorithm 1 decision.
    EXPECT_EQ(res.sched.decisions, static_cast<std::int64_t>(res.tasks_total));
    EXPECT_EQ(res.scheduling.gpu_allocations,
              static_cast<std::int64_t>(res.tasks_total));
    if (ranks == 1) {
      EXPECT_EQ(res.pipeline.shared_tasks, 0u);
    }
    EXPECT_LE(res.pipeline.shared_tasks, res.tasks_total);
  }
}

std::vector<SharingCase> sharing_cases() {
  std::vector<SharingCase> cases;
  for (int ranks : {1, 2, 3, 4})
    for (int devices : {1, 2})
      for (ExecutionMode mode :
           {ExecutionMode::synchronous, ExecutionMode::pipelined})
        cases.push_back({ranks, devices, mode});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RanksDevicesModes, TaskSharing,
                         ::testing::ValuesIn(sharing_cases()));

TEST_F(HybridTest, TaskSharingRunsOneOwnersTasksOnOtherRanks) {
  // One point at four ranks: three ranks have no point of their own and
  // run the owner's tasks. The start hook lines the ranks up first, so the
  // helpers are already looking for work when the owner publishes.
  const std::vector<apec::GridPoint> point{{0.5, 1.0, 0.0, 0}};
  HybridConfig cfg;
  cfg.ranks = 4;
  cfg.devices = 2;
  cfg.max_queue_length = 32;
  std::uint64_t shared = 0;
  for (int attempt = 0; attempt < 20 && shared == 0; ++attempt) {
    std::atomic<int> arrived{0};
    cfg.rank_start_hook = [&](int, const PointWorkQueue&) {
      arrived.fetch_add(1);
      while (arrived.load() < cfg.ranks) std::this_thread::yield();
    };
    shared = HybridDriver(calc_, cfg).run(point).pipeline.shared_tasks;
  }
  EXPECT_GT(shared, 0u);

  cfg.ranks = 1;
  cfg.rank_start_hook = nullptr;
  EXPECT_EQ(HybridDriver(calc_, cfg).run(point).pipeline.shared_tasks, 0u);
}

// ------------------------------------------------ full-queue CPU fallback

struct FallbackCase {
  int ranks;
  int max_queue_length;
  ExecutionMode mode;
  TaskGranularity granularity;
};

void PrintTo(const FallbackCase& c, std::ostream* os) {
  *os << "ranks=" << c.ranks << " queue=" << c.max_queue_length
      << (c.mode == ExecutionMode::synchronous ? " sync " : " pipelined ")
      << to_string(c.granularity);
}

class Fallback : public HybridTest,
                 public ::testing::WithParamInterface<FallbackCase> {};

TEST_P(Fallback, SpectraIndependentOfSchedule) {
  // More ranks than the one device has queue slots, so some verdicts are
  // "every queue full" (-1). Which tasks get one depends on thread timing;
  // the host path they take computes the kernel's bits, so every run
  // reproduces one rank on one device.
  const auto [ranks, queue, mode, granularity] = GetParam();
  const std::vector<apec::GridPoint> points{{0.3, 1.0, 0.0, 0},
                                            {0.5, 1.0, 0.0, 1},
                                            {0.7, 1.0, 0.0, 2},
                                            {0.9, 1.0, 0.0, 3}};
  HybridConfig cfg;
  cfg.ranks = 1;
  cfg.devices = 1;
  cfg.mode = mode;
  cfg.granularity = granularity;
  const HybridResult one = HybridDriver(calc_, cfg).run(points);
  ASSERT_EQ(one.scheduling.cpu_fallbacks, 0);

  cfg.ranks = ranks;
  cfg.max_queue_length = queue;
  std::int64_t fallbacks = 0;
  for (int run = 0; run < 20; ++run) {
    const HybridResult res = HybridDriver(calc_, cfg).run(points);
    SCOPED_TRACE(::testing::Message() << "run " << run);
    expect_bitwise_equal(one.spectra, res.spectra);
    // The fault ledger keeps its meaning: a full queue is not a fault.
    EXPECT_EQ(res.faults.cpu_fallbacks, 0);
    EXPECT_EQ(res.faults.gpu_completed + res.faults.cpu_completed,
              static_cast<std::int64_t>(res.tasks_total));
    EXPECT_EQ(res.faults.cpu_completed, res.scheduling.cpu_fallbacks);
    fallbacks += res.scheduling.cpu_fallbacks;
  }
  // The full-queue path really ran.
  EXPECT_GT(fallbacks, 0);
}

std::vector<FallbackCase> fallback_cases() {
  // A rank holds at most one device slot at a time, so a full queue needs
  // more ranks than slots: queue lengths 1-3 under 3 and 4 ranks.
  std::vector<FallbackCase> cases;
  for (int ranks : {3, 4})
    for (int queue = 1; queue < ranks; ++queue)
      for (ExecutionMode mode :
           {ExecutionMode::synchronous, ExecutionMode::pipelined})
        for (TaskGranularity g : {TaskGranularity::ion, TaskGranularity::level})
          cases.push_back({ranks, queue, mode, g});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RanksQueuesModes, Fallback,
                         ::testing::ValuesIn(fallback_cases()));

TEST_F(HybridTest, ServiceServesTheTicketAfterABadOne) {
  service::ServiceConfig cfg;
  cfg.hybrid.ranks = 2;
  cfg.hybrid.devices = 2;
  service::SpectralService svc(calc_, cfg);
  EXPECT_THROW(svc.submit({{0.5, 1.0, 0.0, 0}, {-1.0, 1.0, 0.0, 1}}).wait(),
               std::invalid_argument);
  const std::vector<apec::GridPoint> good{{0.3, 1.0, 0.0, 0},
                                          {0.8, 1.0, 0.0, 1}};
  const service::ServiceReply reply = svc.submit(good).wait();
  expect_bitwise_equal(reply.spectra,
                       HybridDriver(calc_, cfg.hybrid).run(good).spectra);
}

// ------------------------------------------------- hybrid fault recovery

TEST_F(HybridTest, RetryBudgetExhaustionDegradesBitIdentically) {
  // Every kernel launch fails: each RRC task burns its whole attempt budget
  // and degrades to the kernel-equivalent host path. The spectrum must stay
  // bitwise what the healthy device would have produced.
  const std::vector<apec::GridPoint> points{{0.3, 1.0, 0.0, 0},
                                            {0.8, 1.0, 0.0, 1}};
  HybridConfig base;
  base.ranks = 1;
  base.devices = 1;
  base.mode = ExecutionMode::synchronous;
  base.max_queue_length = 32;
  const HybridResult ref = HybridDriver(calc_, base).run(points);

  util::FaultPlanConfig fc;
  fc.seed = 5;
  fc.kernel_fault_rate = 1.0;
  util::FaultPlan plan(fc);
  HybridConfig cfg = base;
  cfg.fault_plan = &plan;
  cfg.max_task_attempts = 2;
  const HybridResult res = HybridDriver(calc_, cfg).run(points);

  ASSERT_EQ(ref.spectra.size(), res.spectra.size());
  for (std::size_t p = 0; p < ref.spectra.size(); ++p)
    for (std::size_t b = 0; b < ref.spectra[p].bin_count(); ++b)
      ASSERT_EQ(ref.spectra[p][b], res.spectra[p][b])
          << "point " << p << " bin " << b;
  EXPECT_GT(res.faults.injected, 0);
  EXPECT_EQ(res.faults.injected, res.faults.retried);
  EXPECT_GT(res.faults.cpu_fallbacks, 0);
  EXPECT_GE(res.faults.quarantines, 1);
  EXPECT_EQ(res.faults.gpu_completed + res.faults.cpu_completed,
            static_cast<std::int64_t>(res.tasks_total));
  ASSERT_EQ(res.device_health.size(), 1u);
  EXPECT_EQ(res.device_health[0], DeviceHealth::quarantined);
}

TEST_F(HybridTest, DeviceDeathRacingFullQueueKeepsExactlyOnceAccounting) {
  // A one-slot queue under two ranks forces queue-full CPU fallbacks to
  // race the device's mid-run death. Every task must still complete exactly
  // once, the dead device must end quarantined, and the spectra must be
  // the fault-free single rank's bits: every host path runs the kernel
  // rule.
  const std::vector<apec::GridPoint> points{{0.3, 1.0, 0.0, 0},
                                            {0.5, 1.0, 0.0, 1},
                                            {0.7, 1.0, 0.0, 2},
                                            {0.9, 1.0, 0.0, 3}};
  util::FaultPlanConfig fc;
  fc.seed = 3;
  fc.dead_device = 0;
  fc.dies_after_ops = 6;
  util::FaultPlan plan(fc);

  HybridConfig cfg;
  cfg.ranks = 2;
  cfg.devices = 1;
  cfg.max_queue_length = 1;
  cfg.mode = ExecutionMode::pipelined;
  cfg.fault_plan = &plan;
  const std::int64_t total = static_cast<std::int64_t>(points.size());
  // Hold rank 1 until rank 0 has claimed work, so both ranks are live and
  // contending on the one-slot queue when the device dies.
  cfg.rank_start_hook = [&](int rank, const PointWorkQueue& queue) {
    if (rank == 0) return;
    while (queue.remaining() == total) std::this_thread::yield();
  };
  const HybridResult res = HybridDriver(calc_, cfg).run(points);

  EXPECT_EQ(res.faults.device_deaths, 1);
  ASSERT_EQ(res.device_health.size(), 1u);
  EXPECT_EQ(res.device_health[0], DeviceHealth::quarantined);
  EXPECT_EQ(res.faults.injected, res.faults.retried);
  EXPECT_EQ(res.faults.gpu_completed + res.faults.cpu_completed,
            static_cast<std::int64_t>(res.tasks_total));

  HybridConfig one;
  one.ranks = 1;
  one.devices = 1;
  expect_bitwise_equal(HybridDriver(calc_, one).run(points).spectra,
                       res.spectra);
}

}  // namespace
