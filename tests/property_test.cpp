// Property-based and differential-fuzz suites: the scheduler policy against
// a brute-force reference, DES invariants over randomized configurations,
// integrator convergence orders over a method sweep, and conservation
// properties of the physics substrates over randomized inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "atomic/ion_balance.h"
#include "atomic/rates.h"
#include "core/scheduler.h"
#include "nei/system.h"
#include "quad/integrate.h"
#include "rrc/rrc.h"
#include "sim/hybrid_sim.h"
#include "util/rng.h"

namespace {

using namespace hspec;

// ----------------------------------------- scheduler policy differential fuzz

/// Brute-force restatement of Algorithm 1's selection rule.
int reference_pick(const std::vector<std::int32_t>& loads,
                   const std::vector<std::int64_t>& hist, std::int32_t lmax) {
  int best = -1;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (best < 0 || loads[i] < loads[static_cast<std::size_t>(best)] ||
        (loads[i] == loads[static_cast<std::size_t>(best)] &&
         hist[i] < hist[static_cast<std::size_t>(best)]))
      best = static_cast<int>(i);
  }
  if (best >= 0 && loads[static_cast<std::size_t>(best)] >= lmax) return -1;
  return best;
}

TEST(PolicyFuzz, PickDeviceMatchesBruteForceReference) {
  util::Xoshiro256 rng(2026);
  for (int trial = 0; trial < 20'000; ++trial) {
    const std::size_t n = 1 + rng.bounded(8);
    const auto lmax = static_cast<std::int32_t>(1 + rng.bounded(12));
    std::vector<std::int32_t> loads(n);
    std::vector<std::int64_t> hist(n);
    for (auto& l : loads)
      l = static_cast<std::int32_t>(rng.bounded(
          static_cast<std::uint64_t>(lmax) + 2));
    for (auto& h : hist) h = static_cast<std::int64_t>(rng.bounded(5));
    ASSERT_EQ(core::pick_device(loads, hist, lmax),
              reference_pick(loads, hist, lmax))
        << "trial " << trial;
  }
}

TEST(PolicyFuzz, SchedulerSequenceMatchesSerialReference) {
  // Drive TaskScheduler and a hand-simulated load/history model with the
  // same random alloc/free sequence; they must agree step for step.
  util::Xoshiro256 rng(7);
  for (int round = 0; round < 50; ++round) {
    const int devices = 1 + static_cast<int>(rng.bounded(4));
    const int lmax = 1 + static_cast<int>(rng.bounded(6));
    auto shm = core::ShmRegion::create_inprocess(devices, lmax);
    core::TaskScheduler sched(shm.view());

    std::vector<std::int32_t> loads(static_cast<std::size_t>(devices), 0);
    std::vector<std::int64_t> hist(static_cast<std::size_t>(devices), 0);
    std::vector<int> outstanding;
    for (int step = 0; step < 200; ++step) {
      const bool do_alloc = outstanding.empty() || rng.uniform() < 0.6;
      if (do_alloc) {
        const int got = sched.sche_alloc();
        const int expect = reference_pick(loads, hist, lmax);
        ASSERT_EQ(got, expect) << "round " << round << " step " << step;
        if (expect >= 0) {
          ++loads[static_cast<std::size_t>(expect)];
          ++hist[static_cast<std::size_t>(expect)];
          outstanding.push_back(expect);
        }
      } else {
        const std::size_t pick = rng.bounded(outstanding.size());
        const int dev = outstanding[pick];
        outstanding.erase(outstanding.begin() +
                          static_cast<std::ptrdiff_t>(pick));
        sched.sche_free(dev);
        --loads[static_cast<std::size_t>(dev)];
      }
    }
  }
}

// ------------------------------------------------------------- DES invariants

TEST(SimFuzz, InvariantsOverRandomConfigurations) {
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    sim::HybridSimConfig cfg;
    cfg.ranks = 1 + static_cast<int>(rng.bounded(24));
    cfg.devices = static_cast<int>(rng.bounded(5));
    cfg.max_queue_length = 1 + static_cast<int>(rng.bounded(12));
    cfg.total_tasks = 1 + rng.bounded(600);
    cfg.prep_s = rng.uniform(1e-3, 0.2);
    cfg.cpu_task_s = rng.uniform(0.05, 2.0);
    cfg.gpu_task_s = rng.uniform(1e-4, 0.05);
    cfg.jitter = rng.uniform(0.0, 0.3);
    cfg.seed = rng();
    cfg.asynchronous = rng.uniform() < 0.5;
    const auto res = sim::simulate_hybrid(cfg);

    // Conservation.
    ASSERT_EQ(res.tasks_gpu + res.tasks_cpu, cfg.total_tasks) << trial;
    // History bookkeeping.
    std::int64_t hist = 0;
    for (auto h : res.history) hist += h;
    ASSERT_EQ(static_cast<std::uint64_t>(hist), res.tasks_gpu) << trial;
    // Physical lower bound: nothing finishes faster than the critical path
    // of one rank's prep work or the busiest device's service time.
    const double min_prep =
        (1.0 - cfg.jitter) * cfg.prep_s *
        std::floor(static_cast<double>(cfg.total_tasks) /
                   static_cast<double>(cfg.ranks));
    ASSERT_GE(res.makespan_s, min_prep - 1e-9) << trial;
    for (double busy : res.device_busy_s)
      ASSERT_LE(busy, res.makespan_s + 1e-9) << trial;
    // Residency accounts for the whole run.
    if (cfg.devices > 0) {
      double total = 0.0;
      for (double t : res.load0_residency_s) total += t;
      ASSERT_NEAR(total, res.makespan_s, 1e-6 * res.makespan_s) << trial;
    }
  }
}

// -------------------------------------------------- integrator order sweeps

struct MethodCase {
  quad::KernelMethod method;
  std::size_t coarse;
  std::size_t fine;
  double expected_gain;  // error(coarse)/error(fine) lower bound
};

// Names the ctest case; the default byte dump would include the padding
// after `method`, which is not initialized, so names changed between builds.
void PrintTo(const MethodCase& c, std::ostream* os) {
  *os << quad::to_string(c.method) << ' ' << c.coarse << "->" << c.fine;
}

class ConvergenceSweep : public ::testing::TestWithParam<MethodCase> {};

TEST_P(ConvergenceSweep, ErrorDropsAtTheMethodRate) {
  const auto [method, coarse, fine, expected_gain] = GetParam();
  auto f = [](double x) { return std::exp(-x) * (1.0 + std::sin(2.0 * x)); };
  // Reference via a very fine evaluation of the same family.
  const double exact =
      quad::qags(f, 0.0, 2.0, 1e-14, 1e-14).value;
  const double e_coarse =
      std::fabs(quad::kernel_integrate(method, coarse, f, 0.0, 2.0).value -
                exact);
  const double e_fine =
      std::fabs(quad::kernel_integrate(method, fine, f, 0.0, 2.0).value -
                exact);
  EXPECT_GT(e_coarse / std::max(e_fine, 1e-18), expected_gain)
      << quad::to_string(method);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ConvergenceSweep,
    ::testing::Values(
        MethodCase{quad::KernelMethod::simpson, 8, 16, 8.0},     // ~2^4
        MethodCase{quad::KernelMethod::trapezoid, 8, 16, 3.0},   // ~2^2
        MethodCase{quad::KernelMethod::romberg, 3, 5, 10.0},     // superalg.
        MethodCase{quad::KernelMethod::gauss, 4, 8, 50.0}));     // spectral

// -------------------------------------------------------- physics properties

TEST(PhysicsFuzz, RrcClosedFormAcrossRandomChannels) {
  util::Xoshiro256 rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const int charge = 1 + static_cast<int>(rng.bounded(26));
    const int n = 1 + static_cast<int>(rng.bounded(5));
    rrc::RrcChannel ch;
    ch.recombining_charge = charge;
    ch.level = atomic::make_levels(charge, {n, false}).back();
    ch.gaunt_correction = false;
    const rrc::PlasmaState p{hspec::util::KeV{rng.uniform(0.05, 5.0)},
                             hspec::util::PerCm3{rng.uniform(0.5, 5.0)},
                             hspec::util::PerCm3{rng.uniform(0.1, 2.0)}};
    const double edge = ch.level.binding_keV;
    const hspec::util::KeV lo{edge * rng.uniform(0.3, 1.5)};
    const hspec::util::KeV hi{std::max(lo.value(), edge) +
                              p.kT_keV.value() * rng.uniform(0.5, 4.0)};
    const double exact =
        rrc::rrc_bin_emissivity_exact_nogaunt(ch, p, lo, hi).value();
    const auto q = rrc::rrc_bin_emissivity_qags(ch, p, lo, hi);
    ASSERT_NEAR(q.value.value(), exact, 1e-7 * std::max(exact, 1e-300))
        << "trial " << trial << " charge " << charge << " n " << n;
  }
}

TEST(PhysicsFuzz, CieDistributionsAcrossTheWholeTable) {
  util::Xoshiro256 rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const int z = 1 + static_cast<int>(rng.bounded(30));
    const double kT = std::exp(rng.uniform(std::log(1e-3), std::log(30.0)));
    const auto f = atomic::cie_fractions(z, hspec::util::KeV{kT});
    double sum = 0.0;
    for (double x : f) {
      ASSERT_GE(x, 0.0);
      sum += x;
    }
    ASSERT_NEAR(sum, 1.0, 1e-10) << "Z=" << z << " kT=" << kT;
  }
}

TEST(PhysicsFuzz, NeiRhsConservesForRandomStates) {
  util::Xoshiro256 rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    const int z = 1 + static_cast<int>(rng.bounded(30));
    nei::PlasmaHistory h;
    h.ne_cm3 = hspec::util::PerCm3{rng.uniform(0.1, 100.0)};
    const double kT = rng.uniform(0.01, 10.0);
    h.kT_keV = [kT](double) { return kT; };
    nei::NeiSystem sys(z, h);
    std::vector<double> y(sys.dimension());
    double norm = 0.0;
    for (auto& v : y) {
      v = rng.uniform();
      norm += v;
    }
    for (auto& v : y) v /= norm;
    std::vector<double> dydt(y.size());
    sys.rhs(0.0, y, dydt);
    double sum = 0.0;
    for (double d : dydt) sum += d;
    ASSERT_NEAR(sum, 0.0, 1e-12 * h.ne_cm3.value()) << "Z=" << z;
  }
}

TEST(PhysicsFuzz, RatesStayFiniteAndNonNegativeEverywhere) {
  for (int z = 1; z <= 30; ++z) {
    for (double kT : {1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0}) {
      for (int j = 0; j < z; ++j) {
        const double s = atomic::ionization_rate(z, j, hspec::util::KeV{kT}).value();
        ASSERT_TRUE(std::isfinite(s));
        ASSERT_GE(s, 0.0);
      }
      for (int j = 1; j <= z; ++j) {
        const double a = atomic::recombination_rate(z, j, hspec::util::KeV{kT}).value();
        ASSERT_TRUE(std::isfinite(a));
        ASSERT_GT(a, 0.0);
      }
    }
  }
}

}  // namespace
