#include "apec/calculator.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "apec/continuum.h"
#include "apec/level_population.h"
#include "apec/two_photon.h"
#include "apec/lines.h"
#include "atomic/element.h"
#include "atomic/ion_balance.h"
#include "rrc/rrc.h"

namespace hspec::apec {

util::PerCm3 PointPopulations::ion_density(int z, int j) const {
  return n_h_cm3 * (atomic::abundance_rel_h(z) *
                    atomic::cie_fraction(z, j, kT_keV));
}

void validate_point(const GridPoint& point) {
  if (!(std::isfinite(point.kT_keV) && point.kT_keV > 0.0))
    throw std::invalid_argument("grid point: kT must be finite and positive, "
                                "got " + std::to_string(point.kT_keV));
  if (!(std::isfinite(point.ne_cm3) && point.ne_cm3 > 0.0))
    throw std::invalid_argument("grid point: ne must be finite and positive, "
                                "got " + std::to_string(point.ne_cm3));
}

PointPopulations solve_populations(const atomic::AtomicDatabase& db,
                                   const GridPoint& point) {
  validate_point(point);
  // ne = n_H * sum_z ab_z * <q>_z(kT)  (one pass; CIE fractions do not
  // depend on density in this model).
  double electrons_per_h = 0.0;
  double z2_per_h = 0.0;
  const int max_z = db.config().max_z;
  for (int z = 1; z <= max_z; ++z) {
    const double ab = atomic::abundance_rel_h(z);
    const auto f = atomic::cie_fractions(z, point.kT());
    double mq = 0.0;
    double z2 = 0.0;
    for (int j = 0; j <= z; ++j) {
      mq += static_cast<double>(j) * f[static_cast<std::size_t>(j)];
      z2 += static_cast<double>(j) * static_cast<double>(j) *
            f[static_cast<std::size_t>(j)];
    }
    electrons_per_h += ab * mq;
    z2_per_h += ab * z2;
  }
  if (electrons_per_h <= 0.0) electrons_per_h = 1e-8;  // fully neutral plasma

  // GridPoint fields are raw suffixed doubles (they live in shm task
  // records); this is where they acquire their types.
  PointPopulations pops;
  pops.kT_keV = point.kT();
  pops.ne_cm3 = point.ne();
  pops.n_h_cm3 = point.ne() / electrons_per_h;
  pops.z2_weighted_density_cm3 = pops.n_h_cm3 * z2_per_h;
  return pops;
}

SpectrumCalculator::SpectrumCalculator(const atomic::AtomicDatabase& db,
                                       const EnergyGrid& grid,
                                       CalcOptions options)
    : db_(&db), grid_(&grid), options_(options) {}

std::size_t SpectrumCalculator::accumulate_level(const atomic::IonUnit& ion,
                                                 std::size_t level_index,
                                                 const PointPopulations& pops,
                                                 Spectrum& spectrum) const {
  if (!ion.emits_rrc()) return 0;
  const auto levels = db_->levels_for(ion);
  if (level_index >= levels.size())
    throw std::out_of_range("accumulate_level: level index out of range");

  // The recombining ion is the charge state `ion.charge`; the electron lands
  // in charge state `ion.charge - 1`.
  const util::PerCm3 n_rec = pops.ion_density(ion.z, ion.charge);
  rrc::PlasmaState plasma{pops.kT_keV, pops.ne_cm3, n_rec};
  rrc::RrcChannel ch;
  ch.recombining_charge = ion.charge;
  ch.level = levels[level_index];
  ch.gaunt_correction = options_.gaunt_correction;

  const IntegrationPolicy& pol = options_.integration;
  std::size_t bins_done = 0;
  for (std::size_t b = 0; b < grid_->bin_count(); ++b) {
    const util::KeV hi{grid_->hi(b)};
    if (hi.value() <= ch.level.binding_keV) continue;  // fully below the edge
    const util::KeV lo{grid_->lo(b)};
    rrc::BinEmissivity r;
    if (pol.adaptive) {
      r = rrc::rrc_bin_emissivity_qags(ch, plasma, lo, hi, pol.qags_errabs,
                                       pol.qags_errrel);
    } else {
      r = rrc::rrc_bin_emissivity(ch, plasma, lo, hi, pol.kernel,
                                  pol.kernel_param);
    }
    // Spectrum bins are raw doubles in EmissivityPhotCm3PerS: they are the
    // buffer the vgpu kernels and shm reducers accumulate into.
    spectrum[b] += r.value.value();
    ++bins_done;
  }
  return bins_done;
}

std::size_t SpectrumCalculator::accumulate_ion(const atomic::IonUnit& ion,
                                               const PointPopulations& pops,
                                               Spectrum& spectrum) const {
  if (ion.is_free_free()) {
    if (options_.include_free_free) {
      accumulate_free_free(
          {pops.kT_keV, pops.ne_cm3, pops.z2_weighted_density_cm3}, spectrum);
    }
    return grid_->bin_count();
  }
  if (!ion.emits_rrc()) return 0;

  std::size_t bins_done = 0;
  const std::size_t level_count = db_->level_count_for(ion);
  for (std::size_t li = 0; li < level_count; ++li)
    bins_done += accumulate_level(ion, li, pops, spectrum);

  accumulate_ion_lines(ion, pops, spectrum);
  return bins_done;
}

void SpectrumCalculator::accumulate_ion_lines(const atomic::IonUnit& ion,
                                              const PointPopulations& pops,
                                              Spectrum& spectrum) const {
  if (!options_.include_lines || !ion.emits_rrc()) return;
  const util::PerCm3 n_rec = pops.ion_density(ion.z, ion.charge);
  const LinePlasma plasma{pops.kT_keV, pops.ne_cm3, n_rec};
  const auto lines =
      options_.coronal_lines
          ? make_lines_coronal(ion, plasma, options_.line_max_upper_n)
          : make_lines(ion, plasma, options_.line_max_upper_n);
  for (const EmissionLine& line : lines) deposit_line(line, spectrum);
  if (options_.include_two_photon)
    accumulate_two_photon(
        two_photon_channel(ion, pops.kT_keV, pops.ne_cm3, n_rec), spectrum);
}

std::vector<atomic::IonUnit> SpectrumCalculator::populated_ions(
    const PointPopulations& pops) const {
  std::vector<atomic::IonUnit> out;
  for (const atomic::IonUnit& ion : db_->ions()) {
    if (ion.is_free_free()) {
      if (options_.include_free_free) out.push_back(ion);
      continue;
    }
    if (!ion.emits_rrc()) continue;
    // PerCm3 / PerCm3 collapses to a plain dimensionless fraction.
    const double pop_per_h =
        pops.ion_density(ion.z, ion.charge) / pops.n_h_cm3;
    if (pop_per_h >= options_.population_floor) out.push_back(ion);
  }
  return out;
}

Spectrum SpectrumCalculator::calculate(const GridPoint& point) const {
  const PointPopulations pops = solve_populations(*db_, point);
  Spectrum spectrum(*grid_);
  for (const atomic::IonUnit& ion : populated_ions(pops))
    accumulate_ion(ion, pops, spectrum);
  return spectrum;
}

}  // namespace hspec::apec
