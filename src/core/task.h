#pragma once
// The task model of the hybrid framework.
//
// Granularity (§III-B): a task is either one *ion* (coarse: all of the
// ion's energy levels; per-level results accumulate on the GPU and transfer
// once) or one *energy level* of an ion (fine: one kernel + one transfer
// per level — the configuration Fig. 3 shows losing ~2x).

#include <cstddef>
#include <string>

#include "apec/parameter_space.h"
#include "atomic/database.h"
#include "quad/integrate.h"

namespace hspec::core {

enum class TaskGranularity { ion, level };

std::string to_string(TaskGranularity g);

/// One schedulable unit of spectral work.
struct SpectralTask {
  apec::GridPoint point;
  atomic::IonUnit ion;
  TaskGranularity granularity = TaskGranularity::ion;
  /// Level index within the ion; only meaningful for level granularity.
  std::size_t level_index = 0;

  /// The free-free pseudo-unit (a closed-form per-bin integral) or a unit
  /// with no RRC emission: not worth a kernel, so every executor
  /// accumulates it on the host.
  bool closed_form() const noexcept {
    return ion.is_free_free() || !ion.emits_rrc();
  }
};

/// Workload scale knobs. Defaults are test-sized; the paper-scale values
/// (used by the DES benches) are in perfmodel::paper_workload().
struct WorkloadParams {
  std::size_t ions_per_point = 496;
  std::size_t avg_levels_per_ion = 4;
  std::size_t bins_per_level = 50'000;
  quad::KernelMethod method = quad::KernelMethod::simpson;
  std::size_t method_param = quad::kPaperSimpsonPanels;

  /// RRC integrals one ion task contains.
  std::size_t integrals_per_ion_task() const noexcept {
    return avg_levels_per_ion * bins_per_level;
  }
  /// RRC integrals per grid point (the paper's "up to 2.0e8").
  std::size_t integrals_per_point() const noexcept {
    return ions_per_point * integrals_per_ion_task();
  }
};

}  // namespace hspec::core
