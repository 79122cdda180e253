#pragma once
// Shared helpers for the reproduction benches.

#include <cstdio>
#include <string>

#include "apec/calculator.h"
#include "core/hybrid.h"
#include "perfmodel/calibration.h"
#include "sim/hybrid_sim.h"

namespace hspec::bench {

// ---- Real-executor scenario boilerplate -----------------------------------
// The ablation, Fig. 7 and service benches all stand up the same synthetic
// workload: a small deterministic atomic database, a wavelength grid, fixed
// (non-adaptive) integration kernels and a HybridConfig sized for a
// single-core container. Hoisted here so a bench states only what it varies.

/// Synthetic database truncated at `max_z` with `level_cap` sampled levels.
inline atomic::DatabaseConfig bench_db_config(int max_z, int level_cap) {
  atomic::DatabaseConfig cfg;
  cfg.max_z = max_z;
  cfg.levels = {level_cap, true};
  return cfg;
}

/// Fixed-kernel CalcOptions (the kernel rule, not adaptive QAGS), so that
/// every executor mode runs the exact same integrator.
inline apec::CalcOptions bench_kernel_options(
    quad::KernelMethod method = quad::KernelMethod::simpson,
    std::size_t kernel_param = 64) {
  apec::CalcOptions opt;
  opt.integration.adaptive = false;
  opt.integration.kernel = method;
  opt.integration.kernel_param = kernel_param;
  return opt;
}

/// Container-scale HybridConfig. max_queue_length defaults to 32: large
/// enough that every task runs on a device, so the device counters cover
/// the whole workload. (Spectra are bit-for-bit the same either way: a task
/// that finds every queue full runs the kernel rule on the host.)
inline core::HybridConfig bench_hybrid_config(
    int devices, int max_queue_length = 32, int ranks = 4,
    core::ExecutionMode mode = core::ExecutionMode::pipelined) {
  core::HybridConfig cfg;
  cfg.ranks = ranks;
  cfg.devices = devices;
  cfg.max_queue_length = max_queue_length;
  cfg.mode = mode;
  return cfg;
}

/// DES configuration for the paper's spectral experiment: 24 grid points,
/// 24 MPI ranks, 496 ion tasks per point.
inline sim::HybridSimConfig spectral_sim_config(
    const perfmodel::SpectralCostModel& model, int devices,
    int max_queue_length,
    core::TaskGranularity granularity = core::TaskGranularity::ion) {
  sim::HybridSimConfig cfg;
  cfg.ranks = 24;
  cfg.devices = devices;
  cfg.max_queue_length = max_queue_length;
  const std::uint64_t ion_tasks =
      24ull * model.workload().ions_per_point;
  if (granularity == core::TaskGranularity::ion) {
    cfg.total_tasks = ion_tasks;
    cfg.prep_s = model.ion_prep_s();
    cfg.cpu_task_s = model.ion_cpu_s();
    cfg.gpu_task_s = model.ion_gpu_s();
  } else {
    cfg.total_tasks = ion_tasks * model.workload().avg_levels_per_ion;
    cfg.prep_s = model.level_prep_s();
    cfg.cpu_task_s = model.level_cpu_s();
    cfg.gpu_task_s = model.level_gpu_s();
  }
  cfg.sched_overhead_s =
      model.calibration().shm_scheduler_overhead_s;
  return cfg;
}

/// PASS/MISS marker for the shape criteria printed at the end of a bench.
inline void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "MISS", what.c_str());
}

}  // namespace hspec::bench
