#pragma once
// The benchmark's shared set-up and its layer-by-layer probes.
//
// Stack is the set-up every workload shares (bench/common.h helpers): a
// synthetic database with z <= 8 and two levels per ion, a 64-bin
// wavelength grid over 5-40 A and the fixed Simpson-64 kernel.
//
// The probes replay a workload's own grid points through each layer's
// public functions, one layer call at a time, with a span around each call
// when a tracer is given:
//   replay_points     solve_populations -> make_tasks -> scheduler
//                     decision -> execute_task_on_gpu -> accumulate, on one
//                     thread (the executor's per-rank loop, unrolled);
//   direct_rrc_quad   the rule's abscissae, the batched RRC integrand and
//                     the rule's combine step, called directly over the
//                     same points' channels;
//   minimpi_run_us    an empty barrier body through minimpi::run.

#include <cstdint>
#include <memory>
#include <vector>

#include "apec/calculator.h"
#include "apec/energy_grid.h"
#include "apec/spectrum.h"
#include "atomic/database.h"
#include "core/hybrid.h"
#include "trace.h"

namespace perfbench {

/// Virtual GPUs and queue bound of every workload (32: no task ever falls
/// back to QAGS, so spectra stay bitwise comparable across paths).
inline constexpr int kDevices = 2;
inline constexpr int kMaxQueueLength = 32;

struct Stack {
  Stack();
  Stack(const Stack&) = delete;  // calc points into db and grid
  Stack& operator=(const Stack&) = delete;
  hspec::atomic::AtomicDatabase db;
  hspec::apec::EnergyGrid grid;
  hspec::apec::SpectrumCalculator calc;
};

/// Pipelined executor config with `ranks` ranks, kDevices virtual GPUs and
/// the dynamic_min_load policy.
hspec::core::HybridConfig hybrid_config(int ranks);

struct ReplayResult {
  std::vector<hspec::apec::Spectrum> spectra;
  double wall_s = 0.0;
};

/// Single-threaded replay of `points` through the layers of one rank.
ReplayResult replay_points(const Stack& stack,
                           const std::vector<hspec::apec::GridPoint>& points,
                           Tracer* tracer);

struct DirectResult {
  std::uint64_t evals = 0;      ///< integrand evaluations
  std::uint64_t live_bins = 0;  ///< bins at or above a level's threshold
  double rrc_s = 0.0;           ///< time in RrcBatchIntegrand
  double quad_s = 0.0;          ///< time in kernel_abscissae + kernel_combine
};

/// Direct calls of the quad rule and the batched RRC integrand over every
/// RRC channel the points' tasks integrate.
DirectResult direct_rrc_quad(const Stack& stack,
                             const std::vector<hspec::apec::GridPoint>& points,
                             Tracer* tracer);

/// Median wall time of `reps` minimpi::run calls whose rank body is one
/// barrier, at `ranks` ranks [us].
double minimpi_run_us(int ranks, int reps, Tracer* tracer);

}  // namespace perfbench
