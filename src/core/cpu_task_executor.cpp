#include "core/cpu_task_executor.h"

#include <algorithm>
#include <vector>

#include "core/gpu_task_executor.h"
#include "vgpu/arena.h"

namespace hspec::core {

namespace {

apec::CalcOptions qags_options(const apec::SpectrumCalculator& calc) {
  apec::CalcOptions options = calc.options();
  options.integration.adaptive = true;
  return options;
}

}  // namespace

CpuTaskExecutor::CpuTaskExecutor(const apec::SpectrumCalculator& calc)
    : qags_(calc.database(), calc.grid(), qags_options(calc)) {}

std::size_t CpuTaskExecutor::execute(const SpectralTask& task,
                                     const apec::PointPopulations& pops,
                                     apec::Spectrum& spectrum) const {
  if (task.granularity == TaskGranularity::level && task.ion.emits_rrc()) {
    const std::size_t bins =
        qags_.accumulate_level(task.ion, task.level_index, pops, spectrum);
    // In level granularity the ion's lines belong to the level-0 task.
    if (task.level_index == 0)
      qags_.accumulate_ion_lines(task.ion, pops, spectrum);
    return bins;
  }
  return qags_.accumulate_ion(task.ion, pops, spectrum);
}

// The device path with the stream replaced by the host replay of the same
// kernel: same closed-form early-out, same level loop, same bin-then-lines
// accumulation into the spectrum — one code path, so the fault tests'
// bitwise equality between the two holds by construction.
std::size_t execute_task_degraded(const apec::SpectrumCalculator& calc,
                                  const SpectralTask& task,
                                  const apec::PointPopulations& pops,
                                  apec::Spectrum& spectrum) {
  if (task.closed_form()) {
    calc.accumulate_ion(task.ion, pops, spectrum);
    return 0;
  }
  const std::size_t n_bins = calc.grid().bin_count();
  std::vector<double> emi(n_bins);
  integrate_task_degraded(calc, task, pops, emi);
  accumulate_task_result(calc, task, pops, emi, spectrum);
  return n_bins;
}

void integrate_task_degraded(const apec::SpectrumCalculator& calc,
                             const SpectralTask& task,
                             const apec::PointPopulations& pops,
                             std::span<double> emi) {
  // A task with no levels launches nothing and leaves emi untouched.
  std::fill(emi.begin(), emi.end(), 0.0);
  // Degradation is rare, so the batch scratch is task-local here.
  vgpu::ScratchArena scratch;
  integrate_task_levels(calc, task, pops, {nullptr, nullptr, nullptr, emi},
                        scratch);
}

}  // namespace hspec::core
