#pragma once
// CPU fallback execution of one spectral task (§III-A): "the original CPU
// process will continue to achieve the task by calling traditional QAGS
// routine serially."

#include <span>

#include "apec/calculator.h"
#include "apec/spectrum.h"
#include "core/task.h"

namespace hspec::core {

/// Per-rank QAGS executor. The CPU path must use adaptive integration
/// regardless of how the hybrid calculator is configured for GPU kernels;
/// building that QAGS calculator is not free, so each rank constructs one
/// CpuTaskExecutor up front and reuses it for every fallback task instead
/// of paying the construction on each task (the old per-task behaviour).
class CpuTaskExecutor {
 public:
  /// Clones `calc`'s configuration with adaptive (QAGS) integration.
  explicit CpuTaskExecutor(const apec::SpectrumCalculator& calc);

  /// Execute `task` on the calling thread and accumulate into `spectrum`.
  /// Returns the number of bin integrals done.
  std::size_t execute(const SpectralTask& task,
                      const apec::PointPopulations& pops,
                      apec::Spectrum& spectrum) const;

  const apec::SpectrumCalculator& calculator() const noexcept { return qags_; }

 private:
  apec::SpectrumCalculator qags_;
};

/// Graceful-degradation executor (DESIGN.md §11): runs the task on the host
/// through the shared level loop (integrate_task_levels) with the GPU
/// kernel's own per-bin rule and the GPU accumulation order, so a task that
/// exhausts its retry budget — or finds every device quarantined — still
/// contributes bytes identical to what the device would have produced.
/// Distinct from CpuTaskExecutor, which is the paper's QAGS path for full
/// queues and differs from the kernels at the 1e-5 level. Returns the
/// number of bin integrals done.
std::size_t execute_task_degraded(const apec::SpectrumCalculator& calc,
                                  const SpectralTask& task,
                                  const apec::PointPopulations& pops,
                                  apec::Spectrum& spectrum);

/// The degraded path's integration alone, for a task without a closed form:
/// its per-bin emissivity written into `emi` (one value per bin), for the
/// caller to accumulate with accumulate_task_result.
void integrate_task_degraded(const apec::SpectrumCalculator& calc,
                             const SpectralTask& task,
                             const apec::PointPopulations& pops,
                             std::span<double> emi);

}  // namespace hspec::core
