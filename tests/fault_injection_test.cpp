// Tests for the fault-injection and recovery layer (DESIGN.md §11): the
// FaultPlan oracle itself, and end-to-end hybrid runs under each injected
// fault class. The contract under test: with any single fault type injected
// at rates up to 20%, the hybrid spectrum — synchronous or pipelined — is
// bit-identical to the fault-free reference, and the FaultStats ledger
// balances (every injection retried, every task completed exactly once).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "apec/calculator.h"
#include "core/hybrid.h"
#include "core/hybrid_executor.h"
#include "util/fault.h"

namespace {

using namespace hspec;
using namespace hspec::core;
using util::FaultPlan;
using util::FaultPlanConfig;
using util::FaultSite;

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, SameSeedSameVerdicts) {
  FaultPlanConfig cfg;
  cfg.seed = 1234;
  cfg.transfer_fault_rate = 0.2;
  cfg.kernel_fault_rate = 0.1;
  cfg.kernel_timeout_rate = 0.05;
  cfg.stream_stall_rate = 0.15;
  cfg.alloc_fault_rate = 0.08;
  FaultPlan a(cfg);
  FaultPlan b(cfg);

  const FaultSite sites[] = {FaultSite::h2d_transfer,  FaultSite::d2h_transfer,
                             FaultSite::kernel_launch, FaultSite::kernel_timeout,
                             FaultSite::stream_stall,  FaultSite::buffer_alloc};
  for (int round = 0; round < 50; ++round)
    for (FaultSite site : sites)
      for (int dev = 0; dev < 2; ++dev) {
        const auto da = a.query(site, dev);
        const auto db = b.query(site, dev);
        ASSERT_EQ(da.fail, db.fail);
        ASSERT_EQ(da.site, db.site);
        ASSERT_EQ(da.penalty_s, db.penalty_s);
      }
  EXPECT_EQ(a.stats().injected_total, b.stats().injected_total);
  EXPECT_GT(a.stats().injected_total, 0);
  EXPECT_EQ(a.stats().queries, 50 * 6 * 2);
}

TEST(FaultPlan, InjectionFrequencyTracksTheConfiguredRate) {
  FaultPlanConfig cfg;
  cfg.seed = 99;
  cfg.transfer_fault_rate = 0.2;
  FaultPlan plan(cfg);
  constexpr int kQueries = 2000;
  int injected = 0;
  for (int i = 0; i < kQueries; ++i)
    if (plan.query(FaultSite::h2d_transfer, 0).fail) ++injected;
  // 400 expected, sigma ~= 18: [300, 500] is > 5 sigma on both sides.
  EXPECT_GT(injected, 300);
  EXPECT_LT(injected, 500);
  EXPECT_EQ(plan.stats().injected_total, injected);
  EXPECT_EQ(plan.stats().injected[static_cast<int>(FaultSite::h2d_transfer)],
            injected);
}

TEST(FaultPlan, ZeroRatesNeverInject) {
  FaultPlan plan(FaultPlanConfig{});
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(plan.query(FaultSite::kernel_launch, 0).fail);
    EXPECT_FALSE(plan.query(FaultSite::d2h_transfer, 1).fail);
  }
  EXPECT_EQ(plan.stats().injected_total, 0);
  EXPECT_EQ(plan.stats().queries, 400);
}

TEST(FaultPlan, PenaltiesComeFromTheConfig) {
  FaultPlanConfig cfg;
  cfg.kernel_timeout_rate = 1.0;
  cfg.stream_stall_rate = 1.0;
  cfg.kernel_timeout_penalty_s = 3.5;
  cfg.stream_stall_penalty_s = 0.25;
  FaultPlan plan(cfg);
  const auto t = plan.query(FaultSite::kernel_timeout, 0);
  ASSERT_TRUE(t.fail);
  EXPECT_EQ(t.site, FaultSite::kernel_timeout);
  EXPECT_EQ(t.penalty_s, 3.5);
  const auto s = plan.query(FaultSite::stream_stall, 0);
  ASSERT_TRUE(s.fail);
  EXPECT_EQ(s.site, FaultSite::stream_stall);
  EXPECT_EQ(s.penalty_s, 0.25);
}

TEST(FaultPlan, DeviceDiesAfterTheConfiguredOpCount) {
  FaultPlanConfig cfg;
  cfg.dead_device = 1;
  cfg.dies_after_ops = 5;
  FaultPlan plan(cfg);
  // The doomed device survives exactly dies_after_ops queries...
  for (int i = 0; i < 5; ++i)
    EXPECT_FALSE(plan.query(FaultSite::kernel_launch, 1).fail) << "op " << i;
  EXPECT_FALSE(plan.device_dead(1));
  // ...then every operation on it fails, permanently, at any site.
  for (int i = 0; i < 3; ++i) {
    const auto d = plan.query(FaultSite::h2d_transfer, 1);
    ASSERT_TRUE(d.fail);
    EXPECT_EQ(d.site, FaultSite::device_death);
  }
  EXPECT_TRUE(plan.device_dead(1));
  // Death is counted once, not per failing query.
  EXPECT_EQ(plan.stats().device_deaths, 1);
  // Other devices are unaffected.
  EXPECT_FALSE(plan.query(FaultSite::kernel_launch, 0).fail);
  EXPECT_FALSE(plan.device_dead(0));
}

TEST(FaultPlan, ValidatesConfig) {
  FaultPlanConfig bad;
  bad.transfer_fault_rate = 1.5;
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
  FaultPlanConfig neg;
  neg.kernel_fault_rate = -0.1;
  EXPECT_THROW(FaultPlan{neg}, std::invalid_argument);
  FaultPlanConfig dev;
  dev.dead_device = util::kMaxFaultDevices;
  EXPECT_THROW(FaultPlan{dev}, std::invalid_argument);
  FaultPlanConfig ops;
  ops.dead_device = 0;
  ops.dies_after_ops = -1;
  EXPECT_THROW(FaultPlan{ops}, std::invalid_argument);
}

TEST(FaultPlan, FaultErrorCarriesSiteAndDevice) {
  const util::FaultError e(FaultSite::d2h_transfer, 3);
  EXPECT_EQ(e.site(), FaultSite::d2h_transfer);
  EXPECT_EQ(e.device(), 3);
  EXPECT_NE(std::string(e.what()).find(
                util::to_string(FaultSite::d2h_transfer)),
            std::string::npos);
}

TEST(FaultPlan, SiteNamesAreDistinct) {
  for (int s = 0; s < util::kFaultSiteCount; ++s)
    for (int t = s + 1; t < util::kFaultSiteCount; ++t)
      EXPECT_STRNE(util::to_string(static_cast<FaultSite>(s)),
                   util::to_string(static_cast<FaultSite>(t)));
}

TEST(FaultPlan, TaskThrowNeverCountsTowardsDeviceDeath) {
  // task_throw is a host-side site: querying it for the dying device's
  // index neither advances nor triggers that device's death.
  FaultPlanConfig cfg;
  cfg.dead_device = 0;
  cfg.dies_after_ops = 2;
  cfg.task_throw_rate = 1.0;
  FaultPlan plan(cfg);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(plan.query(FaultSite::task_throw, 0).site, FaultSite::task_throw);
  EXPECT_FALSE(plan.device_dead(0));
  EXPECT_FALSE(plan.query(FaultSite::kernel_launch, 0).fail);
  EXPECT_FALSE(plan.query(FaultSite::kernel_launch, 0).fail);
  EXPECT_EQ(plan.query(FaultSite::kernel_launch, 0).site,
            FaultSite::device_death);
  cfg.task_throw_rate = 1.5;
  EXPECT_THROW(FaultPlan{cfg}, std::invalid_argument);
}

// ------------------------------------------------------------ hybrid runs

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
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
    opt.integration.adaptive = false;
    return opt;
  }

  static std::vector<apec::GridPoint> points(std::size_t n) {
    std::vector<apec::GridPoint> pts;
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back({0.25 + 0.1 * static_cast<double>(i), 1.0, 0.0, i});
    return pts;
  }

  HybridResult run(ExecutionMode mode, int ranks, int devices,
                   util::FaultPlan* plan = nullptr) {
    HybridConfig cfg;
    cfg.ranks = ranks;
    cfg.devices = devices;
    cfg.mode = mode;
    // Deep enough that no verdict is a plain full queue, so every task that
    // reaches the host got there through a fault.
    cfg.max_queue_length = 32;
    cfg.fault_plan = plan;
    HybridDriver driver(calc_, cfg);
    return driver.run(points(3));
  }

  /// Fault-free all-GPU reference: one rank, one device, synchronous. Every
  /// faulty run below must reproduce these spectra bit for bit.
  const HybridResult& reference() {
    if (!ref_) ref_.emplace(run(ExecutionMode::synchronous, 1, 1));
    return *ref_;
  }

  static void expect_bit_identical(const HybridResult& a,
                                   const HybridResult& b) {
    ASSERT_EQ(a.spectra.size(), b.spectra.size());
    for (std::size_t p = 0; p < a.spectra.size(); ++p)
      for (std::size_t bin = 0; bin < a.spectra[p].bin_count(); ++bin)
        ASSERT_EQ(a.spectra[p][bin], b.spectra[p][bin])
            << "point " << p << " bin " << bin;
  }

  /// The exactly-once ledger (invariants documented on FaultStats).
  static void expect_ledger_balances(const HybridResult& r) {
    EXPECT_EQ(r.faults.injected, r.faults.retried);
    EXPECT_LE(r.faults.requeued, r.faults.retried);
    EXPECT_LE(r.faults.retried, r.faults.requeued + r.faults.cpu_fallbacks);
    EXPECT_EQ(r.faults.gpu_completed + r.faults.cpu_completed,
              static_cast<std::int64_t>(r.tasks_total));
  }

  atomic::AtomicDatabase db_;
  apec::EnergyGrid grid_;
  apec::SpectrumCalculator calc_;

 private:
  std::optional<HybridResult> ref_;
};

TEST_F(FaultInjectionTest, ZeroRatePlanIsInert) {
  // Installing a plan arms the recovery layer; with no faults it must change
  // nothing: no injections, no retries, all devices healthy, spectra exact.
  FaultPlan plan(FaultPlanConfig{});
  const HybridResult res = run(ExecutionMode::synchronous, 4, 2, &plan);
  expect_bit_identical(reference(), res);
  EXPECT_EQ(res.faults.injected, 0);
  EXPECT_EQ(res.faults.retried, 0);
  EXPECT_EQ(res.faults.quarantines, 0);
  expect_ledger_balances(res);
  ASSERT_EQ(res.device_health.size(), 2u);
  for (DeviceHealth h : res.device_health)
    EXPECT_EQ(h, DeviceHealth::healthy);
  EXPECT_GT(plan.stats().queries, 0);
}

TEST_F(FaultInjectionTest, TransferFaultsRecoverBitIdentically) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.transfer_fault_rate = 0.2;
  FaultPlan plan(cfg);
  const HybridResult res = run(ExecutionMode::synchronous, 4, 2, &plan);
  EXPECT_GT(res.faults.injected, 0);
  expect_bit_identical(reference(), res);
  expect_ledger_balances(res);
}

TEST_F(FaultInjectionTest, KernelFaultsRecoverBitIdenticallySync) {
  FaultPlanConfig cfg;
  cfg.seed = 11;
  cfg.kernel_fault_rate = 0.15;
  FaultPlan plan(cfg);
  const HybridResult res = run(ExecutionMode::synchronous, 4, 2, &plan);
  EXPECT_GT(res.faults.injected, 0);
  expect_bit_identical(reference(), res);
  expect_ledger_balances(res);
}

TEST_F(FaultInjectionTest, KernelFaultsRecoverBitIdenticallyPipelined) {
  FaultPlanConfig cfg;
  cfg.seed = 11;
  cfg.kernel_fault_rate = 0.15;
  FaultPlan plan(cfg);
  const HybridResult res = run(ExecutionMode::pipelined, 4, 2, &plan);
  EXPECT_GT(res.faults.injected, 0);
  expect_bit_identical(reference(), res);
  expect_ledger_balances(res);
}

TEST_F(FaultInjectionTest, KernelTimeoutsChargeTimeButNotResults) {
  FaultPlanConfig cfg;
  cfg.seed = 13;
  cfg.kernel_timeout_rate = 0.15;
  FaultPlan plan(cfg);
  const HybridResult res = run(ExecutionMode::synchronous, 4, 2, &plan);
  EXPECT_GT(res.faults.injected, 0);
  expect_bit_identical(reference(), res);
  expect_ledger_balances(res);
  // The watchdog kills the kernel after it burned virtual time: the faulty
  // run's devices spent longer than the reference's single device.
  double faulty_kernel_s = 0.0;
  for (const auto& st : res.device_stats) faulty_kernel_s += st.kernel_time_s;
  EXPECT_GT(faulty_kernel_s, reference().device_stats[0].kernel_time_s);
}

TEST_F(FaultInjectionTest, StreamStallsRecoverBitIdenticallyPipelined) {
  FaultPlanConfig cfg;
  cfg.seed = 17;
  cfg.stream_stall_rate = 0.15;
  FaultPlan plan(cfg);
  const HybridResult res = run(ExecutionMode::pipelined, 4, 2, &plan);
  EXPECT_GT(res.faults.injected, 0);
  expect_bit_identical(reference(), res);
  expect_ledger_balances(res);
}

TEST_F(FaultInjectionTest, StreamStallsRecoverBitIdenticallySynchronous) {
  // Synchronous mode is the blocking configuration of the same stream
  // executor, so a stall-only plan fires here too and must recover.
  FaultPlanConfig cfg;
  cfg.seed = 17;
  cfg.stream_stall_rate = 0.5;
  FaultPlan plan(cfg);
  const HybridResult res = run(ExecutionMode::synchronous, 4, 2, &plan);
  EXPECT_GT(res.faults.injected, 0);
  expect_bit_identical(reference(), res);
  expect_ledger_balances(res);
}

TEST_F(FaultInjectionTest, AllocFaultsRecoverBitIdentically) {
  FaultPlanConfig cfg;
  cfg.seed = 19;
  cfg.alloc_fault_rate = 0.2;
  FaultPlan plan(cfg);
  for (ExecutionMode mode :
       {ExecutionMode::synchronous, ExecutionMode::pipelined}) {
    const HybridResult res = run(mode, 4, 2, &plan);
    EXPECT_GT(res.faults.injected, 0);
    expect_bit_identical(reference(), res);
    expect_ledger_balances(res);
  }
}

TEST_F(FaultInjectionTest, DeviceDeathQuarantinesAndDegradesGracefully) {
  for (ExecutionMode mode :
       {ExecutionMode::synchronous, ExecutionMode::pipelined}) {
    FaultPlanConfig cfg;
    cfg.seed = 23;
    cfg.dead_device = 0;
    cfg.dies_after_ops = 40;  // dies mid-run, after real work landed on it
    FaultPlan plan(cfg);
    const HybridResult res = run(mode, 4, 2, &plan);
    expect_bit_identical(reference(), res);
    expect_ledger_balances(res);
    EXPECT_GT(res.faults.injected, 0);
    EXPECT_EQ(res.faults.device_deaths, 1);
    EXPECT_GE(res.faults.quarantines, 1);
    ASSERT_EQ(res.device_health.size(), 2u);
    EXPECT_EQ(res.device_health[0], DeviceHealth::quarantined);
    EXPECT_EQ(res.device_health[1], DeviceHealth::healthy);
    // The surviving device kept (or picked up) real work.
    EXPECT_GT(res.history[1], 0);
  }
}

TEST_F(FaultInjectionTest, SingleDeviceDeathDrainsEverythingToTheHost) {
  // With the only device dead, every remaining task must take the
  // kernel-equivalent degraded path — still bit-identical.
  FaultPlanConfig cfg;
  cfg.seed = 29;
  cfg.dead_device = 0;
  cfg.dies_after_ops = 10;
  FaultPlan plan(cfg);
  const HybridResult res = run(ExecutionMode::synchronous, 2, 1, &plan);
  expect_bit_identical(reference(), res);
  expect_ledger_balances(res);
  EXPECT_EQ(res.faults.device_deaths, 1);
  ASSERT_EQ(res.device_health.size(), 1u);
  EXPECT_EQ(res.device_health[0], DeviceHealth::quarantined);
  EXPECT_GT(res.faults.cpu_fallbacks, 0);
  EXPECT_GT(res.faults.cpu_completed, 0);
}

TEST_F(FaultInjectionTest, TaskThrowCancelsTheBatchAndReleasesEverySlot) {
  // A task body that throws, on whichever rank runs it, fails its batch
  // with that error: the other ranks stop, every scheduler slot comes back,
  // and the same executor then serves a clean batch bit for bit.
  for (ExecutionMode mode :
       {ExecutionMode::synchronous, ExecutionMode::pipelined}) {
    FaultPlanConfig throwing;
    throwing.seed = 37;
    throwing.task_throw_rate = 0.3;
    std::optional<FaultPlan> plan(std::in_place, throwing);
    HybridConfig cfg;
    cfg.ranks = 4;
    cfg.devices = 2;
    cfg.mode = mode;
    cfg.max_queue_length = 32;
    cfg.fault_plan = &*plan;
    HybridExecutor executor(calc_, cfg);
    try {
      executor.run_batch(points(3));
      ADD_FAILURE() << "no task threw";
    } catch (const util::FaultError& e) {
      EXPECT_EQ(e.site(), FaultSite::task_throw);
    }
    for (int d = 0; d < executor.device_count(); ++d)
      EXPECT_EQ(executor.device_load(d), 0) << "device " << d;

    // The executor arms its plan per batch: swap in an inert one.
    plan.emplace(FaultPlanConfig{});
    const HybridResult res = executor.run_batch(points(3));
    expect_bit_identical(reference(), res);
    expect_ledger_balances(res);
    EXPECT_EQ(res.sched.decisions, static_cast<std::int64_t>(res.tasks_total));
    for (int d = 0; d < executor.device_count(); ++d)
      EXPECT_EQ(executor.device_load(d), 0) << "device " << d;
  }
}

TEST_F(FaultInjectionTest, MixedFaultsAtTwentyPercentStayExact) {
  // Everything at once at the acceptance-bar rate, both modes. The plan's
  // counters are cumulative but the driver reports per-run deltas, so one
  // plan can serve both runs.
  FaultPlanConfig cfg;
  cfg.seed = 31;
  cfg.transfer_fault_rate = 0.2;
  cfg.kernel_fault_rate = 0.2;
  cfg.kernel_timeout_rate = 0.2;
  cfg.stream_stall_rate = 0.2;
  cfg.alloc_fault_rate = 0.2;
  FaultPlan plan(cfg);
  for (ExecutionMode mode :
       {ExecutionMode::synchronous, ExecutionMode::pipelined}) {
    const HybridResult res = run(mode, 4, 2, &plan);
    EXPECT_GT(res.faults.injected, 0);
    expect_bit_identical(reference(), res);
    expect_ledger_balances(res);
  }
}

}  // namespace
