#include "perfmodel/calibration.h"

#include <stdexcept>

namespace hspec::perfmodel {

core::WorkloadParams paper_workload() {
  core::WorkloadParams w;
  w.ions_per_point = 496;
  w.avg_levels_per_ion = 4;
  w.bins_per_level = 50'000;
  w.method = quad::KernelMethod::simpson;
  w.method_param = quad::kPaperSimpsonPanels;
  return w;
}

SpectralCostModel::SpectralCostModel(PaperCalibration calib,
                                     core::WorkloadParams workload)
    : calib_(calib), workload_(workload), gpu_model_(calib.gpu) {
  if (workload_.avg_levels_per_ion == 0 || workload_.bins_per_level == 0)
    throw std::invalid_argument("SpectralCostModel: empty workload");
}

double SpectralCostModel::gpu_evals_per_bin() const {
  return static_cast<double>(
      quad::kernel_cost_evals(workload_.method, workload_.method_param));
}

double SpectralCostModel::kernel_time_per_level_s() const {
  vgpu::WorkEstimate work;
  work.flops = static_cast<double>(workload_.bins_per_level) *
               gpu_evals_per_bin() * calib_.gpu_flops_per_eval;
  work.device_bytes = workload_.bins_per_level * sizeof(double) * 2;
  work.lanes = calib_.kernel_simd_lanes;
  return gpu_model_.kernel_time_s(work);
}

double SpectralCostModel::ion_prep_s() const {
  return calib_.task_fixed_prep_s + calib_.ion_scalable_prep_s;
}

double SpectralCostModel::ion_cpu_s() const {
  const double flops = static_cast<double>(workload_.integrals_per_ion_task()) *
                       calib_.cpu_flops_per_integral;
  return flops / (calib_.cpu_sustained_gflops * 1e9);
}

vgpu::TaskCostParams SpectralCostModel::task_cost_params() const {
  vgpu::TaskCostParams p;
  p.context_switch_s = calib_.gpu_context_switch_s;
  p.flops_per_eval = calib_.gpu_flops_per_eval;
  p.evals_per_bin = gpu_evals_per_bin();
  p.lanes = calib_.kernel_simd_lanes;
  return p;
}

double SpectralCostModel::ion_gpu_s() const {
  // The shared per-task estimate (vgpu::estimated_task_gpu_s).
  return vgpu::estimated_task_gpu_s(gpu_model_, workload_.avg_levels_per_ion,
                                    workload_.bins_per_level,
                                    task_cost_params());
}

double SpectralCostModel::level_prep_s() const {
  return calib_.task_fixed_prep_s +
         calib_.ion_scalable_prep_s /
             static_cast<double>(workload_.avg_levels_per_ion);
}

double SpectralCostModel::level_cpu_s() const {
  return ion_cpu_s() / static_cast<double>(workload_.avg_levels_per_ion);
}

double SpectralCostModel::level_gpu_s() const {
  return vgpu::estimated_task_gpu_s(gpu_model_, 1, workload_.bins_per_level,
                                    task_cost_params());
}

double SpectralCostModel::serial_point_s() const {
  return static_cast<double>(workload_.ions_per_point) *
         (ion_prep_s() + ion_cpu_s());
}

double SpectralCostModel::mpi_only_s(std::size_t points, int ranks) const {
  if (ranks < 1) throw std::invalid_argument("mpi_only_s: ranks < 1");
  const double total_serial = static_cast<double>(points) * serial_point_s();
  const double speedup =
      std::min<double>(static_cast<double>(ranks),
                       calib_.node_cpu_core_equivalents);
  return total_serial / speedup;
}

}  // namespace hspec::perfmodel
