// quickstart — the smallest end-to-end use of the library:
// build the atomic database, define a spectral grid and a plasma state,
// run the serial APEC path, then the hybrid CPU/GPU driver, and compare.
//
//   $ ./quickstart [--kt 0.6] [--gpus 2] [--ranks 4] [--bins 160]

#include <cmath>
#include <cstdio>

#include "apec/calculator.h"
#include "core/hybrid.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace hspec;
  const util::Cli cli(argc, argv);
  const double kT = cli.get_double("kt", 0.6);
  const int gpus = static_cast<int>(cli.get_int("gpus", 2));
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const auto bins = static_cast<std::size_t>(cli.get_int("bins", 160));

  // 1. The synthetic AtomDB: 30 elements, all charge states, 496 ion units.
  atomic::DatabaseConfig db_cfg;
  db_cfg.levels = {3, true};  // 6 recombination levels per ion
  const atomic::AtomicDatabase db(db_cfg);
  std::printf("atomic database: %zu ion units (%zu RRC emitters)\n",
              db.ion_count(), db.rrc_ions().size());

  // 2. A wavelength grid covering the paper's 1-50 Angstrom band.
  const auto grid = apec::EnergyGrid::wavelength(1.0, 50.0, bins);

  // 3. The serial APEC path: adaptive QAGS for every bin integral.
  apec::CalcOptions serial_opt;
  serial_opt.integration.adaptive = true;
  const apec::SpectrumCalculator serial_calc(db, grid, serial_opt);
  const apec::GridPoint point{kT, 1.0, 0.0, 0};
  const apec::Spectrum serial = serial_calc.calculate(point);
  std::printf("serial spectrum: total emissivity %.4e, peak bin %.4e\n",
              serial.total(), serial.peak());

  // 4. The hybrid driver: ranks prepare per-ion tasks and the shared-memory
  //    scheduler (Algorithm 1) dispatches them to virtual GPUs running the
  //    Simpson-64 kernel (Algorithm 2); a task that finds every queue full
  //    runs the same kernel rule on its rank's CPU.
  apec::CalcOptions hybrid_opt;
  hybrid_opt.integration.adaptive = false;
  const apec::SpectrumCalculator hybrid_calc(db, grid, hybrid_opt);
  core::HybridConfig cfg;
  cfg.ranks = ranks;
  cfg.devices = gpus;
  cfg.max_queue_length = 10;
  core::HybridDriver driver(hybrid_calc, cfg);
  const core::HybridResult result = driver.run({point});

  std::printf("hybrid run: %zu tasks, %.1f%% on GPU (%lld GPU / %lld CPU)\n",
              result.tasks_total, 100.0 * result.scheduling.gpu_task_ratio(),
              static_cast<long long>(result.scheduling.gpu_allocations),
              static_cast<long long>(result.scheduling.cpu_fallbacks));
  for (std::size_t d = 0; d < result.device_stats.size(); ++d)
    std::printf("  vGPU %zu: %llu kernels, %.3f ms busy (virtual)\n", d,
                static_cast<unsigned long long>(
                    result.device_stats[d].kernels_launched),
                1e3 * (result.device_stats[d].kernel_time_s +
                       result.device_stats[d].transfer_time_s));

  // 5. Accuracy: the Fig. 7/8 comparison in two lines.
  double worst = 0.0;
  for (std::size_t b = 0; b < grid.bin_count(); ++b) {
    if (serial[b] < 1e-9 * serial.peak()) continue;
    worst = std::max(worst,
                     std::fabs(result.spectra[0][b] - serial[b]) / serial[b]);
  }
  std::printf("worst relative difference vs serial: %.3e "
              "(paper Fig. 8: <= 3.3e-5)\n",
              worst);
  serial.write_csv("quickstart_spectrum.csv", "serial");
  std::printf("wrote quickstart_spectrum.csv\n");
  return 0;
}
