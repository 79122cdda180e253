// Chaos soak for the recovery layer: randomized FaultPlan seeds sweeping
// fault rates from 0 to 20% over the Fig. 3 style workload, in both
// execution modes, with an occasional mid-run device death. Every run must
// stay bit-identical to the fault-free reference and keep the exactly-once
// ledger balanced — or, when a task body throws (task_throw), fail with
// that error, release every scheduler slot and leave the executor exact
// for the next batch.
//
// Labeled `soak` (not tier-1). The default depth is a quick smoke pass;
// CI's fault-soak job sets HSPEC_SOAK=full for the long sweep under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
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

bool full_soak() {
  const char* env = std::getenv("HSPEC_SOAK");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

class FaultSoakTest : public ::testing::Test {
 protected:
  FaultSoakTest()
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

  // Fig. 3 shape: a sweep of temperatures at fixed density.
  static std::vector<apec::GridPoint> points(std::size_t n) {
    std::vector<apec::GridPoint> pts;
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back({0.2 + 0.15 * static_cast<double>(i), 1.0, 0.0, i});
    return pts;
  }

  HybridResult run(ExecutionMode mode, util::FaultPlan* plan) {
    HybridDriver driver(calc_, config(mode, plan));
    return driver.run(points(full_soak() ? 6 : 3));
  }

  static HybridConfig config(ExecutionMode mode, util::FaultPlan* plan) {
    HybridConfig cfg;
    cfg.ranks = 4;
    cfg.devices = 2;
    cfg.mode = mode;
    // Deep enough that only fault verdicts ever reach the CPU, so the host
    // work the soak sees is the recovery layer's.
    cfg.max_queue_length = 64;
    cfg.fault_plan = plan;
    return cfg;
  }

  const HybridResult& reference() {
    if (!ref_) ref_.emplace(run(ExecutionMode::synchronous, nullptr));
    return *ref_;
  }

  void check(const HybridResult& res, const char* what) {
    const HybridResult& ref = reference();
    ASSERT_EQ(ref.spectra.size(), res.spectra.size()) << what;
    for (std::size_t p = 0; p < ref.spectra.size(); ++p)
      for (std::size_t b = 0; b < ref.spectra[p].bin_count(); ++b)
        ASSERT_EQ(ref.spectra[p][b], res.spectra[p][b])
            << what << " point " << p << " bin " << b;
    EXPECT_EQ(res.faults.injected, res.faults.retried) << what;
    EXPECT_LE(res.faults.requeued, res.faults.retried) << what;
    EXPECT_LE(res.faults.retried,
              res.faults.requeued + res.faults.cpu_fallbacks)
        << what;
    EXPECT_EQ(res.faults.gpu_completed + res.faults.cpu_completed,
              static_cast<std::int64_t>(res.tasks_total))
        << what;
    // Scheduling-latency histogram accounting (DESIGN.md §15): exactly one
    // clocked decision per task, regardless of faults or execution mode —
    // fault-path re-allocations bypass the clock on purpose.
    EXPECT_EQ(res.sched.decisions, static_cast<std::int64_t>(res.tasks_total))
        << what;
    EXPECT_GE(res.sched.latency_ns_total, 0) << what;
    EXPECT_GE(res.sched.mean_ns(), 0.0) << what;
  }

  atomic::AtomicDatabase db_;
  apec::EnergyGrid grid_;
  apec::SpectrumCalculator calc_;

 private:
  std::optional<HybridResult> ref_;
};

TEST_F(FaultSoakTest, RandomizedSeedsAndRatesStayExact) {
  const std::vector<std::uint64_t> seeds =
      full_soak() ? std::vector<std::uint64_t>{0x5eed1, 0x5eed2, 0x5eed3,
                                               0x5eed4}
                  : std::vector<std::uint64_t>{0x5eed1};
  const double rates[] = {0.0, 0.05, 0.1, 0.2};
  for (std::uint64_t seed : seeds) {
    for (double rate : rates) {
      FaultPlanConfig cfg;
      cfg.seed = seed;
      cfg.transfer_fault_rate = rate;
      cfg.kernel_fault_rate = rate;
      cfg.kernel_timeout_rate = rate;
      cfg.stream_stall_rate = rate;
      cfg.alloc_fault_rate = rate;
      FaultPlan plan(cfg);
      for (ExecutionMode mode :
           {ExecutionMode::synchronous, ExecutionMode::pipelined}) {
        char what[96];
        std::snprintf(what, sizeof(what), "seed=%llx rate=%.2f mode=%d",
                      static_cast<unsigned long long>(seed), rate,
                      static_cast<int>(mode));
        check(run(mode, &plan), what);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(FaultSoakTest, DeviceDeathUnderBackgroundFaults) {
  const std::vector<std::uint64_t> seeds =
      full_soak() ? std::vector<std::uint64_t>{0xdead1, 0xdead2}
                  : std::vector<std::uint64_t>{0xdead1};
  for (std::uint64_t seed : seeds) {
    FaultPlanConfig cfg;
    cfg.seed = seed;
    cfg.transfer_fault_rate = 0.1;
    cfg.kernel_fault_rate = 0.1;
    cfg.dead_device = static_cast<int>(seed % 2);
    cfg.dies_after_ops = 30;
    for (ExecutionMode mode :
         {ExecutionMode::synchronous, ExecutionMode::pipelined}) {
      // Death is permanent within a plan; give each mode a fresh plan so
      // both exercise the mid-run transition.
      FaultPlan plan(cfg);
      char what[96];
      std::snprintf(what, sizeof(what), "death seed=%llx mode=%d",
                    static_cast<unsigned long long>(seed),
                    static_cast<int>(mode));
      const HybridResult res = run(mode, &plan);
      check(res, what);
      if (HasFatalFailure()) return;
      EXPECT_EQ(res.faults.device_deaths, 1) << what;
      EXPECT_EQ(res.device_health[static_cast<std::size_t>(cfg.dead_device)],
                DeviceHealth::quarantined)
          << what;
    }
  }
}

TEST_F(FaultSoakTest, TaskThrowsMidPointNeverWedgeOrLeakSlots) {
  // Task bodies throw at random while device faults retry underneath. A
  // batch either fails with the task_throw error or is exact; either way
  // no scheduler slot stays reserved, and once the throws stop the same
  // executor is exact again.
  const std::vector<std::uint64_t> seeds =
      full_soak() ? std::vector<std::uint64_t>{0x7401, 0x7402, 0x7403}
                  : std::vector<std::uint64_t>{0x7401};
  const int batches = full_soak() ? 6 : 3;
  const std::vector<apec::GridPoint> pts = points(full_soak() ? 6 : 3);
  for (std::uint64_t seed : seeds) {
    for (double rate : {0.01, 0.05, 0.2}) {
      for (ExecutionMode mode :
           {ExecutionMode::synchronous, ExecutionMode::pipelined}) {
        char what[96];
        std::snprintf(what, sizeof(what), "throw seed=%llx rate=%.2f mode=%d",
                      static_cast<unsigned long long>(seed), rate,
                      static_cast<int>(mode));
        FaultPlanConfig cfg;
        cfg.seed = seed;
        cfg.task_throw_rate = rate;
        cfg.transfer_fault_rate = 0.05;
        cfg.kernel_fault_rate = 0.05;
        std::optional<FaultPlan> plan(std::in_place, cfg);
        HybridExecutor executor(calc_, config(mode, &*plan));
        for (int b = 0; b < batches; ++b) {
          try {
            check(executor.run_batch(pts), what);
          } catch (const util::FaultError& e) {
            EXPECT_EQ(e.site(), util::FaultSite::task_throw) << what;
          }
          if (HasFatalFailure()) return;
          for (int d = 0; d < executor.device_count(); ++d)
            ASSERT_EQ(executor.device_load(d), 0) << what << " device " << d;
        }
        plan.emplace(FaultPlanConfig{});  // read at the next batch's start
        check(executor.run_batch(pts), what);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
