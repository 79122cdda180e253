// fig7_spectrum — reproduce Fig. 7: the emissivity spectrum (normalized
// flux vs wavelength, 1-50 Angstrom) computed by (a) the serial APEC path
// (adaptive QAGS per bin) and (b) the hybrid CPU/GPU path (Simpson-64
// kernels on virtual GPUs through the shared-memory scheduler).
//
// This bench runs the REAL pipeline — actual RRC integrals on the synthetic
// atomic database — at a bin count scaled for a single-core container.
// Shape criterion: the two normalized-flux series are visually identical
// (the paper prints them as indistinguishable panels).

#include <cmath>
#include <cstdio>

#include "apec/calculator.h"
#include "common.h"
#include "core/hybrid.h"
#include "util/table.h"

int main() {
  using namespace hspec;
  std::fputs(util::bench_banner(
                 "Fig. 7 — serial vs hybrid spectra (normalized flux, "
                 "1-50 Angstrom)",
                 "the two panels are visually identical")
                 .c_str(),
             stdout);

  // 6 levels/ion at bench scale; full element range.
  atomic::AtomicDatabase db(
      bench::bench_db_config(atomic::kMaxZ, /*level_cap=*/3));
  const auto grid = apec::EnergyGrid::wavelength(1.0, 50.0, 240);
  const apec::GridPoint pt{0.6, 1.0, 0.0, 0};

  apec::CalcOptions serial_opt;
  serial_opt.integration.adaptive = true;  // original serial APEC: QAGS
  apec::SpectrumCalculator serial_calc(db, grid, serial_opt);
  const apec::Spectrum serial = serial_calc.calculate(pt);

  // GPU kernels: Simpson-64 (non-adaptive), per bench_kernel_options.
  apec::SpectrumCalculator hybrid_calc(db, grid, bench::bench_kernel_options());
  const core::HybridConfig cfg =
      bench::bench_hybrid_config(/*devices=*/3, /*max_queue_length=*/10);
  core::HybridDriver driver(hybrid_calc, cfg);
  const auto result = driver.run({pt});
  const apec::Spectrum& hybrid = result.spectra.at(0);

  // Same workload once more in synchronous mode (the paper's blocking
  // loop), to put the pipelined device timeline and PCIe traffic in context.
  core::HybridConfig sync_cfg = cfg;
  sync_cfg.mode = core::ExecutionMode::synchronous;
  const auto sync_result = core::HybridDriver(hybrid_calc, sync_cfg).run({pt});

  serial.write_csv("fig7_serial.csv", "serial");
  hybrid.write_csv("fig7_gpu.csv", "gpu");

  // Coarse ASCII rendering of both panels (16 wavelength bands).
  const auto s_series = serial.wavelength_series();
  const auto h_series = hybrid.wavelength_series();
  std::printf("wavelength band   serial  hybrid   (normalized flux)\n");
  const std::size_t stride = s_series.size() / 16;
  double worst = 0.0;
  for (std::size_t i = 0; i < s_series.size(); ++i) {
    worst = std::max(worst,
                     std::fabs(s_series[i].second - h_series[i].second));
    if (i % stride == 0) {
      auto bar = [](double v) {
        return std::string(static_cast<std::size_t>(std::lround(v * 30)), '#');
      };
      std::printf("%7.2f A  %6.4f | %-30s\n           %6.4f | %-30s\n",
                  s_series[i].first, s_series[i].second,
                  bar(s_series[i].second).c_str(), h_series[i].second,
                  bar(h_series[i].second).c_str());
    }
  }

  std::printf("\nGPU tasks: %lld, CPU fallbacks: %lld (%zu virtual GPUs)\n",
              static_cast<long long>(result.scheduling.gpu_allocations),
              static_cast<long long>(result.scheduling.cpu_fallbacks),
              result.device_stats.size());
  std::printf("max |serial - hybrid| normalized flux difference: %.3e\n",
              worst);

  std::uint64_t sync_h2d = 0;
  std::uint64_t async_h2d = 0;
  for (const auto& st : sync_result.device_stats) sync_h2d += st.bytes_h2d;
  for (const auto& st : result.device_stats) async_h2d += st.bytes_h2d;
  std::printf(
      "\npipelined executor: %llu streams, %llu cache hits, %llu tasks "
      "run for another rank's point, %llu steals\n",
      static_cast<unsigned long long>(result.pipeline.streams_used),
      static_cast<unsigned long long>(result.pipeline.cache_hits),
      static_cast<unsigned long long>(result.pipeline.shared_tasks),
      static_cast<unsigned long long>(result.pipeline.steals));
  std::printf(
      "virtual device timeline: sync %.4fs -> pipelined %.4fs (%.2fx); "
      "H2D %llu -> %llu bytes (%.1f%% saved)\n",
      sync_result.virtual_makespan_s, result.virtual_makespan_s,
      sync_result.virtual_makespan_s / result.virtual_makespan_s,
      static_cast<unsigned long long>(sync_h2d),
      static_cast<unsigned long long>(async_h2d),
      100.0 * (1.0 - static_cast<double>(async_h2d) /
                         static_cast<double>(sync_h2d)));

  std::printf("\nshape checks:\n");
  bench::check(serial.total() > 0.0 && hybrid.total() > 0.0,
               "both pipelines produce flux");
  bench::check(worst < 2e-3,
               "normalized-flux panels visually identical (max diff < 2e-3)");
  bench::check(result.scheduling.gpu_allocations > 0,
               "the hybrid run actually used the virtual GPUs");
  bench::check(result.virtual_makespan_s < sync_result.virtual_makespan_s,
               "pipelined device timeline beats the synchronous executor");
  bench::check(async_h2d * 2 <= sync_h2d,
               "resident edge cache cuts H2D traffic by >= 50%");
  std::printf("\ncsv: fig7_serial.csv, fig7_gpu.csv\n");
  return 0;
}
