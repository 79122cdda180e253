#include "core/gpu_task_executor.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "rrc/rrc.h"
#include "rrc/rrc_batch.h"
#include "vgpu/integr_kernel.h"

namespace hspec::core {

std::size_t integrate_task_levels(const apec::SpectrumCalculator& calc,
                                  const SpectralTask& task,
                                  const apec::PointPopulations& pops,
                                  const LevelTarget& target,
                                  vgpu::ScratchArena& arena) {
  const auto levels = calc.database().levels_for(task.ion);
  const std::size_t level_begin =
      task.granularity == TaskGranularity::level ? task.level_index : 0;
  const std::size_t level_end = task.granularity == TaskGranularity::level
                                    ? task.level_index + 1
                                    : levels.size();
  if (level_end > levels.size())
    throw std::out_of_range("integrate_task_levels: level index out of range");

  const apec::EnergyGrid& grid = calc.grid();
  const std::size_t n_bins = grid.bin_count();
  const util::PerCm3 n_rec = pops.ion_density(task.ion.z, task.ion.charge);
  const apec::IntegrationPolicy& pol = calc.options().integration;
  vgpu::IntegrLaunchConfig cfg;
  cfg.method = pol.kernel;
  cfg.method_param = pol.kernel_param;

  // One arena reset per task (vgpu/arena.h lifetime rule): the eager
  // launches below are done with their scratch by the time they return.
  if (pol.batch) arena.reset();

  for (std::size_t li = level_begin; li < level_end; ++li) {
    rrc::RrcChannel ch;
    ch.recombining_charge = task.ion.charge;
    ch.level = levels[li];
    ch.gaunt_correction = calc.options().gaunt_correction;
    const rrc::PlasmaState plasma{pops.kT_keV, pops.ne_cm3, n_rec};
    // Algorithm 2: the level integrates from its own threshold upward. The
    // first launch overwrites emi (no zeroing upload); later launches
    // accumulate.
    cfg.lower_cutoff = ch.level.binding_keV;
    cfg.accumulate = li != level_begin;
    if (pol.batch) {
      const rrc::RrcBatchIntegrand bf(ch, plasma);
      if (target.stream != nullptr)
        vgpu::gpu_integr_edges_stream(*target.stream, *target.edges_dev,
                                      n_bins, bf, *target.emi_dev, arena, cfg);
      else
        vgpu::integr_edges_host(grid.edges(), n_bins, bf, target.host_emi,
                                arena, cfg);
    } else {
      // Kernel edge: the integrator hands us raw abscissae; wrap on entry
      // and unwrap the typed emissivity into the accumulation buffer.
      auto f = [&](double e) {
        return rrc::rrc_power_density(ch, plasma, util::KeV{e}).value();
      };
      if (target.stream != nullptr)
        vgpu::gpu_integr_edges_stream(*target.stream, *target.edges_dev,
                                      n_bins, f, *target.emi_dev, cfg);
      else
        vgpu::integr_edges_host(grid.edges(), n_bins, f, target.host_emi, cfg);
    }
  }
  return level_end - level_begin;
}

void accumulate_task_result(const apec::SpectrumCalculator& calc,
                            const SpectralTask& task,
                            const apec::PointPopulations& pops,
                            std::span<const double> emi,
                            apec::Spectrum& spectrum) {
  for (std::size_t b = 0; b < emi.size(); ++b) spectrum[b] += emi[b];
  // Line emission stays host-side on every path.
  if (task.granularity == TaskGranularity::ion || task.level_index == 0)
    calc.accumulate_ion_lines(task.ion, pops, spectrum);
}

void integrate_task_degraded(const apec::SpectrumCalculator& calc,
                             const SpectralTask& task,
                             const apec::PointPopulations& pops,
                             std::span<double> emi) {
  // A task with no levels launches nothing and leaves emi untouched.
  std::fill(emi.begin(), emi.end(), 0.0);
  // Host tasks are rare, so the batch scratch is task-local here.
  vgpu::ScratchArena scratch;
  integrate_task_levels(calc, task, pops, {nullptr, nullptr, nullptr, emi},
                        scratch);
}

GpuExecutionReport execute_task_on_gpu(const apec::SpectrumCalculator& calc,
                                       const SpectralTask& task,
                                       const apec::PointPopulations& pops,
                                       vgpu::Device& device,
                                       apec::Spectrum& spectrum,
                                       vgpu::BufferPool* pool,
                                       vgpu::ScratchArena* arena) {
  GpuExecutionReport report;
  if (task.closed_form()) {
    calc.accumulate_ion(task.ion, pops, spectrum);
    return report;
  }

  const std::size_t n_bins = calc.grid().bin_count();
  const std::size_t edge_bytes = (n_bins + 1) * sizeof(double);
  const std::size_t emi_bytes = n_bins * sizeof(double);
  vgpu::DeviceBuffer edges_dev =
      pool != nullptr ? pool->acquire(edge_bytes) : device.alloc(edge_bytes);
  vgpu::DeviceBuffer emi_dev =
      pool != nullptr ? pool->acquire(emi_bytes) : device.alloc(emi_bytes);
  std::optional<vgpu::ScratchArena> local_arena;
  vgpu::ScratchArena& scratch =
      arena != nullptr ? *arena : local_arena.emplace();

  vgpu::StreamScheduler overlap(device);
  vgpu::Stream stream(overlap, device);
  stream.copy_to_device_async(edges_dev, calc.grid().edges().data(),
                              edge_bytes);
  report.kernels = integrate_task_levels(
      calc, task, pops, {&stream, &edges_dev, &emi_dev, {}}, scratch);
  report.levels_done = report.kernels;
  std::vector<double> emi(n_bins, 0.0);
  // One transfer finishes the task (the coarse-granularity win).
  if (report.kernels > 0)
    stream.copy_to_host_async(emi.data(), emi_dev, emi_bytes);
  accumulate_task_result(calc, task, pops, emi, spectrum);
  report.bins = n_bins;

  if (pool != nullptr) {
    pool->release(std::move(edges_dev));
    pool->release(std::move(emi_dev));
  }
  return report;
}

}  // namespace hspec::core
