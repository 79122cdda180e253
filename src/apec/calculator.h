#pragma once
// The APEC-style spectral calculator: everything needed to turn one
// (temperature, density, time) grid point into a spectrum.
//
// The per-ion accumulation routine here is the task body shared verbatim by
// the serial baseline, the CPU fallback path, and the virtual-GPU kernel, so
// the hybrid framework (src/core) schedules *work*, never physics.

#include <cstddef>

#include "apec/energy_grid.h"
#include "apec/parameter_space.h"
#include "apec/spectrum.h"
#include "atomic/database.h"
#include "quad/integrate.h"
#include "util/units.h"

namespace hspec::apec {

/// How each RRC bin integral is evaluated.
struct IntegrationPolicy {
  /// true: adaptive QAGS (the original serial APEC / CPU fallback);
  /// false: fixed kernel method (the GPU path).
  bool adaptive = true;
  quad::KernelMethod kernel = quad::KernelMethod::simpson;
  std::size_t kernel_param = quad::kPaperSimpsonPanels;
  /// Kernel-path execution shape: true routes the fixed-method integrals
  /// through the batched (structure-of-arrays, SIMD) integrand; false keeps
  /// the scalar reference path. Bitwise-identical spectra either way — the
  /// identity tests pin it — so this is purely a speed/debugging dial.
  bool batch = true;
  double qags_errabs = 1e-18;
  double qags_errrel = 1e-10;
};

struct CalcOptions {
  IntegrationPolicy integration{};
  bool include_lines = true;
  bool include_free_free = true;
  bool gaunt_correction = true;
  /// false: Boltzmann-weighted line list (fast); true: coronal-balance
  /// level populations (richer physics, see apec/level_population.h).
  bool coronal_lines = false;
  /// Add the 2s->1s two-photon continuum of every charged unit
  /// (apec/two_photon.h). Off by default to keep the reproduction figures
  /// at the paper's component set.
  bool include_two_photon = false;
  /// Skip ions whose population n_ion/n_H falls below this floor — the same
  /// emissivity cut real APEC applies to unpopulated charge states.
  double population_floor = 1e-12;
  int line_max_upper_n = 4;
};

/// Derived densities at a grid point under CIE. Dimension-checked: these
/// flow into rrc::PlasmaState / FreeFreeState / LinePlasma without ever
/// passing through a raw double.
struct PointPopulations {
  util::PerCm3 n_h_cm3{};                 ///< hydrogen nuclei density
  util::PerCm3 z2_weighted_density_cm3{}; ///< sum_i n_i z_i^2 (for free-free)

  /// n_{Z,j} of a specific charge state.
  util::PerCm3 ion_density(int z, int j) const;

  util::KeV kT_keV{};
  util::PerCm3 ne_cm3{};
};

/// O(1) admission check for a grid point: throws std::invalid_argument
/// unless kT and ne are both finite and positive. NaN passes every `<= 0`
/// test, so the check is written as "finite and > 0".
void validate_point(const GridPoint& point);

/// Solve the CIE populations for a grid point: finds n_H such that the
/// free-electron count of all charge states reproduces ne. Rejects what
/// validate_point rejects.
PointPopulations solve_populations(const atomic::AtomicDatabase& db,
                                   const GridPoint& point);

class SpectrumCalculator {
 public:
  SpectrumCalculator(const atomic::AtomicDatabase& db, const EnergyGrid& grid,
                     CalcOptions options = {});

  /// Accumulate one ion unit's full contribution (RRC over all levels and
  /// bins, plus its lines, or the free-free continuum for the pseudo-unit).
  /// Returns the number of bin integrals evaluated.
  std::size_t accumulate_ion(const atomic::IonUnit& ion,
                             const PointPopulations& pops,
                             Spectrum& spectrum) const;

  /// Accumulate a single energy level of an ion (the paper's fine-grained
  /// "Level" task scope). `level_index` indexes levels_for(ion).
  std::size_t accumulate_level(const atomic::IonUnit& ion,
                               std::size_t level_index,
                               const PointPopulations& pops,
                               Spectrum& spectrum) const;

  /// Accumulate only the ion's bound-bound lines (no RRC). The hybrid GPU
  /// path runs RRC kernels on the device and adds lines host-side with this
  /// call, keeping CPU- and GPU-executed tasks bit-comparable in content.
  void accumulate_ion_lines(const atomic::IonUnit& ion,
                            const PointPopulations& pops,
                            Spectrum& spectrum) const;

  /// Full serial calculation of one grid point (the "original serial APEC").
  Spectrum calculate(const GridPoint& point) const;

  /// Ions that survive the population floor at this grid point, in database
  /// order — the task list the hybrid driver schedules.
  std::vector<atomic::IonUnit> populated_ions(const PointPopulations& pops) const;

  const atomic::AtomicDatabase& database() const noexcept { return *db_; }
  const EnergyGrid& grid() const noexcept { return *grid_; }
  const CalcOptions& options() const noexcept { return options_; }

 private:
  const atomic::AtomicDatabase* db_;
  const EnergyGrid* grid_;
  CalcOptions options_;
};

}  // namespace hspec::apec
