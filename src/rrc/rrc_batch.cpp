#include "rrc/rrc_batch.h"

#include <stdexcept>

#include "atomic/constants.h"
#include "util/fastmath.h"

namespace hspec::rrc {

namespace {

namespace fm = util::fm;

// The loop bodies mirror rrc_power_density operation for operation (see the
// bitwise contract in the header): ee < 0 selects the below-threshold zero,
// the Kramers/Milne product keeps the scalar association
//   sigma0 * (n/z2) * r * r * r,  (e*e / me_c2) * sigma,  a * exp * e,
// and the Gaunt select multiplies by exactly 1.0 at or below the edge, which
// is what the scalar branch does. Lanes that the final select discards may
// compute garbage (e <= 0 gives a nonsense ratio) — that is fine, they are
// never observed. This file builds with -fno-trapping-math (CMakeLists.txt
// here), which is what lets GCC compute both arms and blend; each function
// is cloned for x86-64-v3 and baseline (HSPEC_VEC_TARGET), and the
// codegen_vectorized ctest fails if the x86-64-v3 clones stop using packed
// 256-bit FMAs.

HSPEC_VEC_TARGET void eval_nogaunt(double binding, double kt, double pref,
                                   double n_over_z2, const double* xs,
                                   double* ys, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double e = xs[i];
    const double ee = e - binding;
    const double ratio = binding / e;
    const double sigma_ph =
        atomic::kKramersSigma0 * n_over_z2 * ratio * ratio * ratio;
    const double ee_sigma = e * e / atomic::kElectronRestKeV * sigma_ph;
    const double a = ee_sigma * fm::exp(-ee / kt) * e;
    ys[i] = ee < 0.0 ? 0.0 : pref * a;
  }
}

HSPEC_VEC_TARGET void eval_gaunt(double binding, double kt, double pref,
                                 double n_over_z2, const double* xs,
                                 double* ys, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double e = xs[i];
    const double ee = e - binding;
    const double ratio = binding / e;
    const double sigma_ph =
        atomic::kKramersSigma0 * n_over_z2 * ratio * ratio * ratio;
    const double ee_sigma = e * e / atomic::kElectronRestKeV * sigma_ph;
    const double a = ee_sigma * fm::exp(-ee / kt) * e;
    const double ratio_g = e / binding;
    const double lg = fm::log(ratio_g);
    const double g = ratio_g <= 1.0
                         ? 1.0
                         : 1.0 + 0.1727 * lg -
                               0.0496 * lg * lg / (1.0 + 0.5 * lg);
    const double ag = a * g;
    ys[i] = ee < 0.0 ? 0.0 : pref * ag;
  }
}

}  // namespace

RrcBatchIntegrand::RrcBatchIntegrand(const RrcChannel& ch,
                                     const PlasmaState& plasma)
    : binding_(ch.level.binding_keV),
      kt_(plasma.kT_keV.value()),
      prefactor_(maxwellian_prefactor(plasma)),
      gaunt_(ch.gaunt_correction) {
  if (ch.recombining_charge < 1 || ch.level.n < 1)
    throw std::invalid_argument("kramers: charge and n must be >= 1");
  if (binding_ <= 0.0)
    throw std::invalid_argument("kramers: binding energy must be positive");
  const double z2 = static_cast<double>(ch.recombining_charge) *
                    static_cast<double>(ch.recombining_charge);
  n_over_z2_ = static_cast<double>(ch.level.n) / z2;
}

void RrcBatchIntegrand::operator()(std::span<const double> xs,
                                   std::span<double> ys) const {
  if (ys.size() < xs.size())
    throw std::out_of_range("RrcBatchIntegrand: output span too small");
  if (gaunt_)
    eval_gaunt(binding_, kt_, prefactor_, n_over_z2_, xs.data(), ys.data(),
               xs.size());
  else
    eval_nogaunt(binding_, kt_, prefactor_, n_over_z2_, xs.data(), ys.data(),
                 xs.size());
}

}  // namespace hspec::rrc
