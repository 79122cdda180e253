// Tests for the discrete-event engine and the hybrid-execution replay.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/event_queue.h"
#include "sim/analytic_bounds.h"
#include "sim/hybrid_sim.h"
#include "util/rng.h"

namespace {

using namespace hspec::sim;

// ---------------------------------------------------------------- event queue

TEST(EventQueue, ProcessesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(sim.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule(1.0, chain);
  };
  sim.schedule(0.0, chain);
  EXPECT_DOUBLE_EQ(sim.run(), 9.0);
  EXPECT_EQ(depth, 10);
}

TEST(EventQueue, RunUntilLeavesRemainder) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RejectsBadDelays) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(std::nan(""), [] {}), std::invalid_argument);
}

// ----------------------------------------------------------------- hybrid sim

HybridSimConfig small_config() {
  HybridSimConfig c;
  c.ranks = 4;
  c.devices = 1;
  c.max_queue_length = 4;
  c.total_tasks = 100;
  c.prep_s = 0.01;
  c.cpu_task_s = 0.2;
  c.gpu_task_s = 0.002;
  c.jitter = 0.0;
  return c;
}

TEST(HybridSim, ConservesTasks) {
  const auto r = simulate_hybrid(small_config());
  EXPECT_EQ(r.tasks_gpu + r.tasks_cpu, 100u);
  std::int64_t hist = 0;
  for (auto h : r.history) hist += h;
  EXPECT_EQ(static_cast<std::uint64_t>(hist), r.tasks_gpu);
}

TEST(HybridSim, SingleRankSingleDeviceIsAnalytic) {
  // One rank, one device, no jitter: every task runs prep then GPU service
  // with an empty queue; makespan = n * (prep + gpu + sched_overhead_s).
  HybridSimConfig c = small_config();
  c.ranks = 1;
  c.total_tasks = 10;
  c.sched_overhead_s = 0.0;
  const auto r = simulate_hybrid(c);
  EXPECT_EQ(r.tasks_gpu, 10u);
  EXPECT_NEAR(r.makespan_s, 10 * (0.01 + 0.002), 1e-9);
  ASSERT_EQ(r.device_busy_s.size(), 1u);
  EXPECT_NEAR(r.device_busy_s[0], 10 * 0.002, 1e-9);
}

TEST(HybridSim, ZeroDevicesAllCpu) {
  HybridSimConfig c = small_config();
  c.devices = 0;
  const auto r = simulate_hybrid(c);
  EXPECT_EQ(r.tasks_gpu, 0u);
  EXPECT_EQ(r.tasks_cpu, 100u);
  EXPECT_DOUBLE_EQ(r.gpu_task_ratio(), 0.0);
  EXPECT_TRUE(r.history.empty());
}

TEST(HybridSim, MoreDevicesNeverSlower) {
  HybridSimConfig c = small_config();
  c.ranks = 24;
  c.total_tasks = 2000;
  double prev = 1e300;
  for (int d = 1; d <= 4; ++d) {
    c.devices = d;
    const auto r = simulate_hybrid(c);
    EXPECT_LE(r.makespan_s, prev * 1.02) << d << " devices";
    prev = r.makespan_s;
  }
}

TEST(HybridSim, LargerQueueRaisesGpuShare) {
  HybridSimConfig c = small_config();
  c.ranks = 24;
  c.total_tasks = 2000;
  c.jitter = 0.1;
  c.max_queue_length = 2;
  const auto tight = simulate_hybrid(c);
  c.max_queue_length = 12;
  const auto roomy = simulate_hybrid(c);
  EXPECT_GT(roomy.gpu_task_ratio(), tight.gpu_task_ratio());
  EXPECT_LT(roomy.makespan_s, tight.makespan_s);
}

TEST(HybridSim, DeterministicForFixedSeed) {
  HybridSimConfig c = small_config();
  c.jitter = 0.1;
  c.seed = 1234;
  const auto a = simulate_hybrid(c);
  const auto b = simulate_hybrid(c);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.tasks_gpu, b.tasks_gpu);
  c.seed = 99;
  const auto d = simulate_hybrid(c);
  EXPECT_NE(a.makespan_s, d.makespan_s);
}

TEST(HybridSim, ResidencyAccountsForWholeRun) {
  HybridSimConfig c = small_config();
  c.ranks = 8;
  const auto r = simulate_hybrid(c);
  double total = 0.0;
  for (double t : r.load0_residency_s) total += t;
  EXPECT_NEAR(total, r.makespan_s, 1e-6 * r.makespan_s);
  // Load never recorded above the bound.
  ASSERT_EQ(r.load0_residency_s.size(),
            static_cast<std::size_t>(c.max_queue_length) + 1);
}

TEST(HybridSim, LoadThresholdFractionIsAFraction) {
  const auto r = simulate_hybrid(small_config());
  const double f0 = r.load0_fraction_at_least(0);
  const double f3 = r.load0_fraction_at_least(3);
  EXPECT_NEAR(f0, 1.0, 1e-12);
  EXPECT_GE(f3, 0.0);
  EXPECT_LE(f3, f0);
}

TEST(HybridSim, HeavierGpuTasksShiftLoadToCpu) {
  HybridSimConfig c = small_config();
  c.ranks = 24;
  c.devices = 2;
  c.total_tasks = 3000;
  c.jitter = 0.1;
  const auto light = simulate_hybrid(c);
  c.gpu_task_s *= 40.0;  // the Table I complexity dial
  const auto heavy = simulate_hybrid(c);
  EXPECT_LT(heavy.gpu_task_ratio(), light.gpu_task_ratio());
  EXPECT_GT(heavy.load0_fraction_at_least(3),
            light.load0_fraction_at_least(3));
}

TEST(HybridSim, ValidatesConfig) {
  HybridSimConfig c = small_config();
  c.ranks = 0;
  EXPECT_THROW(simulate_hybrid(c), std::invalid_argument);
  c = small_config();
  c.jitter = 1.5;
  EXPECT_THROW(simulate_hybrid(c), std::invalid_argument);
  c = small_config();
  c.max_queue_length = 0;
  EXPECT_THROW(simulate_hybrid(c), std::invalid_argument);
}

TEST(HybridSim, TasksSplitNearEqually) {
  // 10 tasks over 4 ranks: ranks get 3,3,2,2 — all must finish.
  HybridSimConfig c = small_config();
  c.ranks = 4;
  c.total_tasks = 10;
  const auto r = simulate_hybrid(c);
  EXPECT_EQ(r.tasks_gpu + r.tasks_cpu, 10u);
}

// ------------------------------------------------------------ analytic bounds

TEST(AnalyticBounds, DesNeverBeatsTheLowerBound) {
  hspec::util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    HybridSimConfig cfg;
    cfg.ranks = 1 + static_cast<int>(rng.bounded(16));
    cfg.devices = static_cast<int>(rng.bounded(4));
    cfg.max_queue_length = 1 + static_cast<int>(rng.bounded(10));
    cfg.total_tasks = 20 + rng.bounded(400);
    cfg.prep_s = rng.uniform(1e-3, 0.1);
    cfg.cpu_task_s = rng.uniform(0.05, 1.0);
    cfg.gpu_task_s = rng.uniform(1e-3, 0.05);
    cfg.jitter = 0.0;
    cfg.asynchronous = rng.uniform() < 0.5;
    const auto bounds = analytic_bounds(cfg);
    const auto res = simulate_hybrid(cfg);
    ASSERT_GE(res.makespan_s, bounds.lower_bound_s * (1.0 - 1e-9))
        << "trial " << trial;
    // And within a small factor when a GPU exists (the DES is not absurdly
    // pessimistic either).
    if (cfg.devices > 0)
      ASSERT_LE(res.makespan_s, 20.0 * bounds.lower_bound_s) << trial;
  }
}

TEST(AnalyticBounds, GpuBoundDominatesWhenDevicesAreScarce) {
  HybridSimConfig cfg;
  cfg.ranks = 12;
  cfg.devices = 1;
  cfg.total_tasks = 1000;
  cfg.prep_s = 0.001;   // prep trivial
  cfg.cpu_task_s = 1e9; // CPU fallback hopeless...
  cfg.gpu_task_s = 0.01;
  // ...and with qlen >= ranks the queue can never reject, so every task
  // stays on the single GPU and the service bound is the whole story.
  cfg.max_queue_length = 12;
  cfg.jitter = 0.0;
  const auto bounds = analytic_bounds(cfg);
  const auto res = simulate_hybrid(cfg);
  EXPECT_GT(bounds.gpu_bound_s, bounds.prep_bound_s);
  // The run lands near the GPU service bound.
  EXPECT_NEAR(res.makespan_s, bounds.gpu_bound_s,
              0.2 * bounds.gpu_bound_s);
}

TEST(AnalyticBounds, PrepBoundDominatesWithManyDevices) {
  HybridSimConfig cfg;
  cfg.ranks = 4;
  cfg.devices = 8;
  cfg.total_tasks = 400;
  cfg.prep_s = 0.1;        // preparation is the bottleneck
  cfg.cpu_task_s = 1.0;
  cfg.gpu_task_s = 1e-4;
  cfg.jitter = 0.0;
  const auto bounds = analytic_bounds(cfg);
  const auto res = simulate_hybrid(cfg);
  EXPECT_GT(bounds.prep_bound_s, bounds.gpu_bound_s);
  EXPECT_NEAR(res.makespan_s, bounds.prep_bound_s,
              0.05 * bounds.prep_bound_s);
}

}  // namespace
