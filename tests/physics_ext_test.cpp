// Tests for the physics extensions: the two-photon continuum.

#include <gtest/gtest.h>

#include <cmath>

#include "apec/calculator.h"
#include "apec/two_photon.h"

namespace {

using namespace hspec;
using namespace hspec::apec;
using namespace hspec::util::unit_literals;

// ---------------------------------------------------------------- two-photon

TEST(TwoPhoton, ProfileNormalization) {
  // integral phi dy = 2 photons; integral y phi dy = 1 (all the energy).
  const int n = 20'000;
  double photons = 0.0;
  double energy = 0.0;
  for (int i = 0; i < n; ++i) {
    const double y = (i + 0.5) / n;
    photons += two_photon_profile(y) / n;
    energy += y * two_photon_profile(y) / n;
  }
  EXPECT_NEAR(photons, 2.0, 1e-6);
  EXPECT_NEAR(energy, 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(two_photon_profile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(two_photon_profile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(two_photon_profile(1.5), 0.0);
}

TEST(TwoPhoton, ChannelEnergyAndScaling) {
  const atomic::IonUnit o8{8, 8};
  const auto ch = two_photon_channel(o8, 1.0_keV, 1.0_per_cm3, 1.0_per_cm3);
  // 2s-1s gap = (3/4) Z^2 Ry.
  EXPECT_NEAR(ch.transition_keV.value(), 0.75 * 64.0 * 0.0136057, 1e-3);
  EXPECT_GT(ch.decay_rate, 0.0);
  // Linear in both densities.
  const auto ch2 = two_photon_channel(o8, 1.0_keV, 2.0_per_cm3, 3.0_per_cm3);
  EXPECT_NEAR(ch2.decay_rate / ch.decay_rate, 6.0, 1e-9);
  // Inert units produce nothing.
  EXPECT_DOUBLE_EQ(two_photon_channel({0, 0}, 1.0_keV, 1.0_per_cm3, 1.0_per_cm3).decay_rate, 0.0);
  EXPECT_DOUBLE_EQ(two_photon_channel({8, 0}, 1.0_keV, 1.0_per_cm3, 1.0_per_cm3).decay_rate, 0.0);
}

TEST(TwoPhoton, DepositConservesEnergyBelowTheEdge) {
  const atomic::IonUnit o8{8, 8};
  const auto ch = two_photon_channel(o8, 1.0_keV, 1.0_per_cm3, 1.0_per_cm3);
  // Grid covering [~0, E_tot] fully.
  const auto grid = EnergyGrid::linear(1e-4, ch.transition_keV.value() * 1.01, 400);
  Spectrum spec(grid);
  accumulate_two_photon(ch, spec);
  const double e_tot = ch.transition_keV.value();
  EXPECT_NEAR(spec.total(), ch.decay_rate * e_tot,
              1e-3 * ch.decay_rate * e_tot);
  // Nothing above the transition energy.
  for (std::size_t b = 0; b < grid.bin_count(); ++b)
    if (grid.lo(b) > ch.transition_keV.value()) EXPECT_DOUBLE_EQ(spec[b], 0.0);
}

TEST(TwoPhoton, CalculatorOptionAddsContinuum) {
  atomic::DatabaseConfig db_cfg;
  db_cfg.max_z = 8;
  db_cfg.levels = {2, true};
  atomic::AtomicDatabase db(db_cfg);
  const auto grid = EnergyGrid::wavelength(5.0, 40.0, 64);
  CalcOptions off;
  off.integration.adaptive = false;
  CalcOptions on = off;
  on.include_two_photon = true;
  const auto without =
      SpectrumCalculator(db, grid, off).calculate({0.4, 1.0, 0.0, 0});
  const auto with =
      SpectrumCalculator(db, grid, on).calculate({0.4, 1.0, 0.0, 0});
  EXPECT_GT(with.total(), without.total());
}

}  // namespace
