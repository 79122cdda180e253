// Tests for the matrix-exponential propagator and the tridiagonal
// eigensolver: the closed-form reference that LSODA is checked against.

#include <gtest/gtest.h>

#include <cmath>

#include "atomic/ion_balance.h"
#include "nei/evolve.h"
#include "nei/expm_solver.h"
#include "ode/tridiag_eigen.h"
#include "util/rng.h"

namespace {

using namespace hspec;
using namespace hspec::nei;
using namespace hspec::util::unit_literals;
using hspec::util::KeV;
using hspec::util::PerCm3;

PlasmaHistory constant_history(double ne, double kT) {
  PlasmaHistory h;
  h.ne_cm3 = PerCm3{ne};
  h.kT_keV = [kT](double) { return kT; };
  return h;
}

// ------------------------------------------------------ tridiagonal eigen

TEST(TridiagEigen, DiagonalMatrixIsItsOwnDecomposition) {
  const std::vector<double> diag{3.0, -1.0, 2.0};
  const std::vector<double> off{0.0, 0.0};
  const auto e = ode::tridiagonal_eigen(diag, off);
  EXPECT_DOUBLE_EQ(e.values[0], -1.0);
  EXPECT_DOUBLE_EQ(e.values[1], 2.0);
  EXPECT_DOUBLE_EQ(e.values[2], 3.0);
}

TEST(TridiagEigen, TwoByTwoAnalytic) {
  // [[a, b], [b, c]]: eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2).
  const std::vector<double> diag{1.0, 3.0};
  const std::vector<double> off{2.0};
  const auto e = ode::tridiagonal_eigen(diag, off);
  const double mid = 2.0;
  const double rad = std::sqrt(1.0 + 4.0);
  EXPECT_NEAR(e.values[0], mid - rad, 1e-12);
  EXPECT_NEAR(e.values[1], mid + rad, 1e-12);
}

TEST(TridiagEigen, ReconstructsRandomMatrices) {
  util::Xoshiro256 rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.bounded(14);
    std::vector<double> diag(n);
    std::vector<double> off(n - 1);
    for (auto& v : diag) v = rng.uniform(-2.0, 2.0);
    for (auto& v : off) v = rng.uniform(-1.0, 1.0);
    const auto e = ode::tridiagonal_eigen(diag, off);

    // Eigenvalues ascend; vectors orthonormal; A v = lambda v.
    for (std::size_t j = 0; j + 1 < n; ++j)
      EXPECT_LE(e.values[j], e.values[j + 1] + 1e-12);
    for (std::size_t j = 0; j < n; ++j) {
      double norm = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        norm += e.vectors(i, j) * e.vectors(i, j);
      EXPECT_NEAR(norm, 1.0, 1e-10);
      for (std::size_t i = 0; i < n; ++i) {
        double av = diag[i] * e.vectors(i, j);
        if (i > 0) av += off[i - 1] * e.vectors(i - 1, j);
        if (i + 1 < n) av += off[i] * e.vectors(i + 1, j);
        EXPECT_NEAR(av, e.values[j] * e.vectors(i, j), 1e-9)
            << "trial " << trial << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(TridiagEigen, TraceAndSizeChecks) {
  const std::vector<double> diag{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> off{0.5, 0.5, 0.5};
  const auto e = ode::tridiagonal_eigen(diag, off);
  double trace = 0.0;
  for (double v : e.values) trace += v;
  EXPECT_NEAR(trace, 10.0, 1e-10);  // similarity preserves the trace
  EXPECT_THROW(ode::tridiagonal_eigen(diag, {off.data(), 2}),
               std::invalid_argument);
  EXPECT_THROW(ode::tridiagonal_eigen({}, {}), std::invalid_argument);
}

// ------------------------------------------------------- expm propagator

TEST(Expm, EigenvaluesNonPositiveWithOneZero) {
  const ExpmPropagator prop(8, KeV{0.2}, PerCm3{2.0});
  const auto& vals = prop.eigenvalues();
  ASSERT_EQ(vals.size(), 9u);
  for (double v : vals) EXPECT_LE(v, 1e-9);
  // The conservation null vector: exactly one (the largest) ~ 0.
  EXPECT_NEAR(vals.back(), 0.0, 1e-9 * std::fabs(vals.front()));
  EXPECT_LT(vals[vals.size() - 2], -1e-16);
}

TEST(Expm, ZeroTimeIsIdentity) {
  const ExpmPropagator prop(8, KeV{0.2}, PerCm3{1.0});
  const auto y0 = atomic::cie_fractions(8, KeV{0.2});
  const auto y = prop.propagate(y0, 0.0);
  for (std::size_t i = 0; i < y0.size(); ++i)
    EXPECT_NEAR(y[i], y0[i], 1e-10);
}

TEST(Expm, ConservesTotalDensity) {
  const ExpmPropagator prop(8, KeV{0.2}, PerCm3{3.0});
  const auto y0 = atomic::cie_fractions(8, KeV{0.1});
  for (double t : {1e6, 1e9, 1e12}) {
    const auto y = prop.propagate(y0, t);
    double sum = 0.0;
    for (double v : y) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-8) << "t=" << t;
  }
}

TEST(Expm, InfiniteTimeLimitIsCie) {
  const double kT = 0.2;
  const ExpmPropagator prop(8, KeV{kT}, PerCm3{1.0});
  const auto y0 = atomic::cie_fractions(8, KeV{0.05});
  const auto y_inf = prop.propagate(y0, 1e16);
  const auto cie = atomic::cie_fractions(8, KeV{kT});
  for (std::size_t i = 0; i < cie.size(); ++i)
    EXPECT_NEAR(y_inf[i], cie[i], 1e-6) << "state " << i;
  // And the null-space eigenvector agrees directly.
  const auto eq = prop.equilibrium();
  for (std::size_t i = 0; i < cie.size(); ++i)
    EXPECT_NEAR(eq[i], cie[i], 1e-8) << "state " << i;
}

TEST(Expm, AgreesWithLsodaMidRelaxation) {
  // Independent-oracle test: the exact propagator and the LSODA time
  // stepper must agree in the middle of a shock relaxation.
  const double kT = 0.3;
  const double ne = 1.0;
  const double t = 1e11;
  const ExpmPropagator prop(6, KeV{kT}, PerCm3{ne});
  const auto y0 = atomic::cie_fractions(6, KeV{0.05});
  const auto exact = prop.propagate(y0, t);

  auto st = PointState::equilibrium({6}, 0.05_keV);
  EvolveOptions opt;
  opt.solver.base.rtol = 1e-9;
  opt.solver.base.atol = 1e-14;
  opt.renormalize_each_step = false;
  evolve_point_cpu(st, constant_history(ne, kT), 0.0, t / 20.0, 20, opt);

  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_NEAR(st.ions[0][i], exact[i], 5e-5) << "state " << i;
}

TEST(Expm, PropagationIsASemigroup) {
  // exp(A (t1+t2)) y = exp(A t2) exp(A t1) y.
  const ExpmPropagator prop(6, KeV{0.3}, PerCm3{2.0});
  const auto y0 = atomic::cie_fractions(6, KeV{0.1});
  const auto one_hop = prop.propagate(y0, 7e9);
  const auto two_hop = prop.propagate(prop.propagate(y0, 3e9), 4e9);
  for (std::size_t i = 0; i < y0.size(); ++i)
    EXPECT_NEAR(one_hop[i], two_hop[i], 1e-9);
}

TEST(Expm, ValidatesInput) {
  EXPECT_THROW(ExpmPropagator(0, KeV{1.0}, PerCm3{1.0}), std::invalid_argument);
  EXPECT_THROW(ExpmPropagator(8, KeV{-1.0}, PerCm3{1.0}), std::invalid_argument);
  const ExpmPropagator prop(8, KeV{0.2}, PerCm3{1.0});
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(prop.propagate(wrong, 1.0), std::invalid_argument);
  const auto y0 = atomic::cie_fractions(8, KeV{0.2});
  EXPECT_THROW(prop.propagate(y0, -1.0), std::invalid_argument);
}

TEST(Expm, RefusesExtremeDynamicRange) {
  // Fe at coronal temperatures spans hundreds of e-folds between charge
  // states: the symmetrized propagator must refuse rather than silently
  // lose the minority states (use LSODA there).
  EXPECT_THROW(ExpmPropagator(26, KeV{0.05}, PerCm3{1.0}), std::domain_error);
  EXPECT_THROW(ExpmPropagator(8, KeV{2.0}, PerCm3{1.0}), std::domain_error);
}

}  // namespace
