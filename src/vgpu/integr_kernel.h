#pragma once
// GPU-Integr (Algorithm 2 of the paper): integrate N equal bins of [L, U]
// with a fixed-cost rule, one grid-stride device thread per run of
// consecutive bins, results left in a device-resident emi array.
//
//   Algorithm 2 GPU-Integr ( L, U, N, f_rrc, device )
//     bin_num  <- N / thread_num
//     bin_size <- (U - L) / N
//     idx      <- threadIdx.x + blockIdx.x * blockDim.x
//     each thread integrates bins [idx*bin_num, (idx+1)*bin_num) by Simpson
//
// The kernels here take explicit bin edges (APEC grids are wavelength-
// uniform, hence energy-non-uniform); the paper's equal split of [L, U] is
// the special case of equally spaced edges.
//
// `accumulate=true` adds into the existing device array instead of storing —
// that is how all energy levels of one ion accumulate on the GPU so that a
// single D2H transfer finishes the coarse-grained task.
//
// Every entry point — the stream kernel and its host replay — comes in two
// forms:
//
//  * scalar (quad::Integrand)     — the reference oracle: one indirect call
//    per abscissa, the arithmetic pinned by the shared rule templates;
//  * batched (quad::BatchIntegrand + ScratchArena) — each virtual thread
//    records the abscissae of its bins, evaluates them in one vectorizable
//    pass, and replays the rule over the results (quad/batch.h). Bitwise
//    identical to the scalar form whenever the batch integrand matches the
//    scalar integrand pointwise, and ~10x faster on the host because the
//    transcendentals amortize across SIMD lanes (BENCH_kernel.json:
//    10.7x on Simpson-64, Release, AVX2 clone).
//
// The batched forms take a ScratchArena for their transient abscissa/value
// arrays; steady-state launches allocate nothing once the arena is warm
// (reset it per task, not per launch — see vgpu/arena.h lifetime rules).

#include <cstddef>
#include <limits>
#include <span>

#include "quad/batch.h"
#include "quad/integrate.h"
#include "vgpu/arena.h"
#include "vgpu/device.h"

namespace hspec::vgpu {

class Stream;

/// Vector lanes the batched kernels report to the cost model: 4 doubles per
/// AVX2 register — the paper-facing analogue of SIMT warp efficiency. Used
/// for virtual-time accounting only; correctness never depends on it.
inline constexpr double kBatchLanes = 4.0;

struct IntegrLaunchConfig {
  unsigned block_dim = 128;       ///< threads per block
  unsigned max_grid_dim = 64;     ///< cap on blocks (C2075: 14 SMs)
  quad::KernelMethod method = quad::KernelMethod::simpson;
  std::size_t method_param = quad::kPaperSimpsonPanels;
  bool accumulate = false;        ///< += into emi instead of =
  /// Algorithm 2's lower integration limit L: bins entirely below it
  /// contribute zero and bins straddling it are clamped — the RRC threshold
  /// of the level being integrated. Default: no cutoff.
  double lower_cutoff = -std::numeric_limits<double>::infinity();
};

/// Work estimate for integrating `bins` bins under the config (used for the
/// device virtual clock and by the DES cost model). `lanes` is the vector
/// width the integrand evaluations retire at: 1.0 for the scalar path,
/// kBatchLanes for the batched kernels.
WorkEstimate integr_work(std::size_t bins, const IntegrLaunchConfig& cfg,
                         double lanes = 1.0);

/// Launch Algorithm 2 on `stream`: integrate bin i over [edges[i],
/// edges[i+1]] into the device buffer `emi_dev` (n_bins doubles, already
/// allocated); `edges_dev` holds n_bins+1 doubles on the device (the
/// spectral grids of APEC are wavelength-uniform, hence
/// energy-non-uniform). The launch is queued on the stream, so consecutive
/// tasks' kernels and transfers overlap per the device's concurrency rules.
void gpu_integr_edges_stream(Stream& stream, const DeviceBuffer& edges_dev,
                             std::size_t n_bins, quad::Integrand f,
                             DeviceBuffer& emi_dev,
                             const IntegrLaunchConfig& cfg = {});

/// Batched form of gpu_integr_edges_stream. The arena is only used during
/// the (eager, host-executed) launch; it may be reset once the call returns.
void gpu_integr_edges_stream(Stream& stream, const DeviceBuffer& edges_dev,
                             std::size_t n_bins, quad::BatchIntegrand f,
                             DeviceBuffer& emi_dev, ScratchArena& arena,
                             const IntegrLaunchConfig& cfg = {});

/// Host-side replay of the edges kernel: identical per-bin cutoff clamping,
/// method, and accumulate semantics (the same shared bin rule the device
/// variants run), so results are bitwise equal to the kernels — the bins
/// are independent, making the math order-free. No device is touched and
/// no virtual time is charged: this is the graceful-degradation path a task
/// takes when its devices are quarantined or its retry budget is spent.
/// `edges` holds n_bins + 1 doubles; `emi` at least n_bins.
void integr_edges_host(std::span<const double> edges, std::size_t n_bins,
                       quad::Integrand f, std::span<double> emi,
                       const IntegrLaunchConfig& cfg = {});

/// Batched form of integr_edges_host — the degraded path of a batched
/// executor, kept bitwise equal to the batched kernels (which are in turn
/// bitwise equal to the scalar oracle).
void integr_edges_host(std::span<const double> edges, std::size_t n_bins,
                       quad::BatchIntegrand f, std::span<double> emi,
                       ScratchArena& arena, const IntegrLaunchConfig& cfg = {});

}  // namespace hspec::vgpu
