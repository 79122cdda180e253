#pragma once
// GPU execution of one spectral task (§III-B + Algorithm 2).
//
// Ion granularity: the bin edges are on the device, one kernel per energy
// level accumulates into the task's emi array ("the result of emissivity of
// each energy level in each energy bin will be accumulated on GPUs until
// the task is completed"), then one device-to-host transfer of the whole
// emi array.
//
// Level granularity: the same, for a single level — which is exactly why it
// loses: the fixed context-switch + transfer overhead is paid per level.
//
// The Algorithm-2 level loop lives here once (integrate_task_levels) and
// every executor runs it: AsyncGpuExecutor on a rank's stream, the host path
// (integrate_task_degraded) on host arrays, and execute_task_on_gpu on a
// private stream.

#include <cstddef>
#include <span>

#include "apec/calculator.h"
#include "apec/spectrum.h"
#include "core/task.h"
#include "vgpu/arena.h"
#include "vgpu/buffer_pool.h"
#include "vgpu/device.h"
#include "vgpu/stream.h"

namespace hspec::core {

/// Where one task's level kernels run. With `stream` set they are queued on
/// it against the device-resident `edges_dev` and `emi_dev`; with `stream`
/// null they run as the kernel-equivalent host replay
/// (vgpu::integr_edges_host) over the grid's edges into `host_emi` — the
/// degraded path, bitwise equal to the device.
struct LevelTarget {
  vgpu::Stream* stream = nullptr;
  const vgpu::DeviceBuffer* edges_dev = nullptr;
  vgpu::DeviceBuffer* emi_dev = nullptr;
  std::span<double> host_emi;
};

/// The Algorithm-2 level loop. For each RRC level of `task`: build the
/// channel and plasma state, cut the integral off at the level's threshold,
/// and launch the batched integrand (integration.batch) or the scalar one.
/// The first launch overwrites emi and later launches accumulate, so emi
/// needs no zeroing. Returns the number of levels launched; 0 leaves emi
/// untouched. Throws std::out_of_range on a bad level index before any
/// launch. With integration.batch set, `arena` is reset once here and
/// supplies the batch scratch.
std::size_t integrate_task_levels(const apec::SpectrumCalculator& calc,
                                  const SpectralTask& task,
                                  const apec::PointPopulations& pops,
                                  const LevelTarget& target,
                                  vgpu::ScratchArena& arena);

/// Add a finished task's per-bin emissivity to `spectrum`, then the ion's
/// host-side line emission (in level granularity only the level-0 task
/// carries the lines, so they are added exactly once). Every execution path
/// accumulates in this order, which keeps them bitwise identical.
void accumulate_task_result(const apec::SpectrumCalculator& calc,
                            const SpectralTask& task,
                            const apec::PointPopulations& pops,
                            std::span<const double> emi,
                            apec::Spectrum& spectrum);

/// The host path (DESIGN.md §11): the level loop with the device kernel's
/// own per-bin rule, run on the host into `emi` (one value per bin) for a
/// task without a closed form, for the caller to accumulate with
/// accumulate_task_result. Bitwise equal to the device, so a task that
/// finds every queue full, exhausts its retry budget or finds every device
/// quarantined contributes the bytes the device would have produced.
void integrate_task_degraded(const apec::SpectrumCalculator& calc,
                             const SpectralTask& task,
                             const apec::PointPopulations& pops,
                             std::span<double> emi);

struct GpuExecutionReport {
  std::size_t kernels = 0;
  std::size_t levels_done = 0;
  std::size_t bins = 0;
};

/// Execute `task` on `device` and accumulate the result into `spectrum`
/// (host side): edges up, the level loop, emi back, on a private stream —
/// one task of the executor's synchronous mode, outside any executor.
/// `pops` must be the populations of task.point. The integration method
/// comes from calc.options().integration (the non-adaptive kernel
/// settings; the adaptive flag is ignored here). With `pool` non-null,
/// device buffers are leased from it instead of allocated per task. With
/// integration.batch set, `arena`, when non-null, supplies the batch
/// scratch (reset once per task); a null arena falls back to a task-local
/// one.
GpuExecutionReport execute_task_on_gpu(const apec::SpectrumCalculator& calc,
                                       const SpectralTask& task,
                                       const apec::PointPopulations& pops,
                                       vgpu::Device& device,
                                       apec::Spectrum& spectrum,
                                       vgpu::BufferPool* pool = nullptr,
                                       vgpu::ScratchArena* arena = nullptr);

}  // namespace hspec::core
