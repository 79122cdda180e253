#pragma once
// Virtual-time cost model shared by the executing device (src/vgpu/device.h)
// and the discrete-event performance simulator (src/sim). All the paper's
// performance phenomena reduce to the relative magnitudes modeled here:
//  * per-launch overhead  -> fine-grained (Level) tasks lose to coarse (Ion);
//  * PCIe transfer cost   -> per-ion on-device accumulation wins;
//  * compute throughput   -> GPU >> one CPU core for bulk quadrature.

#include <cstddef>

#include "vgpu/device_properties.h"

namespace hspec::vgpu {

/// Abstract work content of a kernel or CPU call.
struct WorkEstimate {
  double flops = 0.0;          ///< floating-point operations
  std::size_t device_bytes = 0; ///< device-memory traffic [bytes]
  /// Effective vector width the flops execute at (>= 1). The scalar path
  /// reports 1; the batched integration kernels report the SIMD lane count
  /// (vgpu::kBatchLanes), so the virtual clock — and hence every DES figure
  /// downstream — reflects the lane-parallel speedup.
  double lanes = 1.0;

  WorkEstimate& operator+=(const WorkEstimate& o) noexcept {
    // Merge lanes as the flops-weighted harmonic mean, which preserves the
    // summed compute time exactly: t = f1/l1 + f2/l2 and (f1+f2)/l == t.
    const double t = flops / lanes + o.flops / o.lanes;
    flops += o.flops;
    device_bytes += o.device_bytes;
    lanes = t > 0.0 ? flops / t : 1.0;
    return *this;
  }
};

/// Average floating-point cost of one RRC integrand evaluation
/// (exp + pow + cross-section arithmetic on either architecture).
inline constexpr double kFlopsPerIntegrandEval = 60.0;

class GpuCostModel {
 public:
  explicit GpuCostModel(DeviceProperties props) : props_(props) {}

  /// Execution time of a kernel given its work, assuming full occupancy:
  /// max(compute-bound, memory-bound) + fixed launch overhead.
  double kernel_time_s(const WorkEstimate& work) const noexcept;

  /// One cudaMemcpy of `bytes` across PCIe (latency + bandwidth).
  double transfer_time_s(std::size_t bytes) const noexcept;

  double launch_overhead_s() const noexcept { return props_.kernel_launch_s; }

  const DeviceProperties& properties() const noexcept { return props_; }

 private:
  DeviceProperties props_;
};

/// Knobs of the per-task GPU cost estimate behind the perfmodel's DES
/// calibration. Defaults mirror perfmodel::PaperCalibration so a bare
/// estimate is paper-shaped.
struct TaskCostParams {
  double context_switch_s = 2.5e-3;  ///< Fermi inter-process switch per task
  double flops_per_eval = 26.0;      ///< integrand cost inside the kernel
  double evals_per_bin = 129.0;      ///< kernel_cost_evals(method, param)
  double lanes = 1.0;                ///< SIMD lanes (kBatchLanes if batched)
};

/// Estimated end-to-end GPU time of one spectral task (§III-B shape):
/// context switch + one kernel per energy level + the edges-up / emi-down
/// transfers. `levels == 0` (closed-form / non-RRC ions) degenerates to
/// the fixed per-task overhead.
double estimated_task_gpu_s(const GpuCostModel& gpu, std::size_t levels,
                            std::size_t bins,
                            const TaskCostParams& params) noexcept;

class CpuCostModel {
 public:
  explicit CpuCostModel(CpuCoreProperties props) : props_(props) {}

  /// Time for one core to execute `flops` of branchy quadrature code.
  double compute_time_s(double flops) const noexcept {
    return flops / (props_.sustained_gflops * 1e9);
  }

  const CpuCoreProperties& properties() const noexcept { return props_; }

 private:
  CpuCoreProperties props_;
};

}  // namespace hspec::vgpu
