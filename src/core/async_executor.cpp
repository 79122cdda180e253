#include "core/async_executor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/gpu_task_executor.h"
#include "util/fault.h"

namespace hspec::core {

namespace {

/// A device buffer leased from a pool for one attempt; returned on every
/// exit path (an invalid buffer is ignored by the pool).
struct PoolLease {
  vgpu::BufferPool& pool;
  vgpu::DeviceBuffer buffer;
  ~PoolLease() { pool.release(std::move(buffer)); }
};

}  // namespace

AsyncGpuExecutor::AsyncGpuExecutor(const apec::SpectrumCalculator& calc,
                                   const std::vector<DevicePipeline*>& pipelines,
                                   TaskScheduler& scheduler, ExecutionMode mode,
                                   int depth, int max_attempts,
                                   util::FaultPlan* plan,
                                   FaultStats* fault_stats)
    : calc_(&calc),
      pipelines_(pipelines),
      scheduler_(&scheduler),
      mode_(mode),
      depth_(mode == ExecutionMode::synchronous ? 1 : depth),
      max_attempts_(max_attempts),
      plan_(plan),
      fstats_(fault_stats),
      lanes_(pipelines.size()) {
  if (depth_ < 1)
    throw std::invalid_argument("AsyncGpuExecutor: depth must be >= 1");
  if (max_attempts_ < 1)
    throw std::invalid_argument("AsyncGpuExecutor: max attempts must be >= 1");
  for (const DevicePipeline* p : pipelines_)
    if (p == nullptr || p->device == nullptr || p->pool == nullptr)
      throw std::invalid_argument("AsyncGpuExecutor: incomplete pipeline");
}

TaskOutcome AsyncGpuExecutor::run(const SpectralTask& task,
                                  const apec::PointPopulations& pops,
                                  int device, std::vector<double>& emi) {
  if (device >= static_cast<int>(pipelines_.size()))
    throw std::out_of_range("AsyncGpuExecutor::run: bad device id");
  // The scheduler's reservation, released on every exit path: a task that
  // throws must not leave its device looking busy to the next batch.
  struct Reservation {
    TaskScheduler& scheduler;
    int device;
    ~Reservation() {
      if (device >= 0) scheduler.sche_free(device);
    }
  } slot{*scheduler_, device};

  // Host-side failure of the task body (fault tests only). It is not a
  // device fault, so the retry loop below never sees it; the device index
  // only keys the plan's verdict.
  if (plan_ != nullptr &&
      plan_->query(util::FaultSite::task_throw, std::max(device, 0)).fail)
    throw util::FaultError(util::FaultSite::task_throw, device);

  // Closed-form / non-emitting ions never launch kernels; the owner adds
  // them on the host. A closed-form task that holds a device slot counts
  // as a GPU completion, as execute_task_on_gpu's early-out does.
  if (task.closed_form()) {
    if (fstats_ != nullptr)
      ++(device >= 0 ? fstats_->gpu_completed : fstats_->cpu_completed);
    return TaskOutcome::closed_form;
  }
  emi.resize(calc_->grid().bin_count());
  if (device < 0) {
    // Every queue full, or every device quarantined: the kernel rule on the
    // host, bitwise equal to the device, so the spectrum does not depend on
    // which tasks found the queues full. Only the all-quarantined verdict
    // is a fault-driven degradation.
    if (fstats_ != nullptr) {
      ++fstats_->cpu_completed;
      if (plan_ != nullptr && scheduler_->all_quarantined())
        ++fstats_->cpu_fallbacks;
    }
    integrate_task_degraded(*calc_, task, pops, emi);
    return TaskOutcome::emi;
  }

  // Bounded retry-with-requeue: a faulted attempt has returned its buffers;
  // free its queue slot, report the failure, and ask the scheduler for a
  // (possibly different) device. Past the budget the task degrades to the
  // host. A failed attempt may have written part of `emi`; the next
  // attempt (or the replay) overwrites all of it, so nothing is counted
  // twice (DESIGN.md §11).
  for (int attempt = 1;; ++attempt) {
    try {
      run_on_device(task, pops, slot.device, emi);
      if (plan_ != nullptr) scheduler_->report_task_success(slot.device);
      ++stats_.gpu_tasks;
      if (fstats_ != nullptr) ++fstats_->gpu_completed;
      return TaskOutcome::emi;
    } catch (const util::FaultError& e) {
      const int failed = std::exchange(slot.device, -1);
      scheduler_->sche_free(failed);
      scheduler_->report_task_fault(
          failed, e.site() == util::FaultSite::device_death);
      if (fstats_ != nullptr) ++fstats_->retried;
      if (attempt < max_attempts_) slot.device = scheduler_->sche_alloc();
      if (slot.device >= 0) {
        if (fstats_ != nullptr) ++fstats_->requeued;
        continue;
      }
      if (fstats_ != nullptr) {
        ++fstats_->cpu_fallbacks;
        ++fstats_->cpu_completed;
      }
      integrate_task_degraded(*calc_, task, pops, emi);
      return TaskOutcome::emi;
    }
  }
}

void AsyncGpuExecutor::run_on_device(const SpectralTask& task,
                                     const apec::PointPopulations& pops,
                                     int device, std::span<double> emi) {
  DevicePipeline& pipe = *pipelines_[static_cast<std::size_t>(device)];
  Lane& lane = lanes_[static_cast<std::size_t>(device)];

  // This rank's streams on the device, created on first use. Tasks rotate
  // across `depth_` streams so task i+1's kernels can overlap task i's
  // readback (and, on Kepler, its kernels) on the virtual timeline.
  if (lane.streams.empty()) {
    for (int s = 0; s < depth_; ++s)
      lane.streams.push_back(
          std::make_unique<vgpu::Stream>(*pipe.streams, *pipe.device));
    pipe.streams_opened.fetch_add(static_cast<std::uint64_t>(depth_),
                                  std::memory_order_relaxed);
  }
  vgpu::Stream& stream = *lane.streams[lane.next_stream];
  lane.next_stream = (lane.next_stream + 1) % lane.streams.size();

  const apec::EnergyGrid& grid = calc_->grid();
  const std::size_t n_bins = grid.bin_count();
  const std::size_t edge_bytes = (n_bins + 1) * sizeof(double);

  PoolLease emi_dev{*pipe.pool, pipe.pool->acquire(n_bins * sizeof(double))};
  PoolLease edges{*pipe.pool, {}};
  // The bin edges are immutable for the executor's lifetime: pipelined
  // mode leases the resident copy instead of paying the (n_bins + 1) *
  // 8-byte H2D per task; synchronous mode uploads them per task, as the
  // paper's blocking loop did.
  const vgpu::DeviceBuffer* edges_dev = nullptr;
  if (mode_ == ExecutionMode::pipelined) {
    edges_dev = &pipe.cache->lease(grid.edges().data(), edge_bytes);
  } else {
    edges.buffer = pipe.pool->acquire(edge_bytes);
    stream.copy_to_device_async(edges.buffer, grid.edges().data(), edge_bytes);
    edges_dev = &edges.buffer;
  }

  if (integrate_task_levels(*calc_, task, pops,
                            {&stream, edges_dev, &emi_dev.buffer, {}},
                            lane.arena) == 0) {
    // No levels => nothing was written; the owner still adds the array.
    std::fill(emi.begin(), emi.end(), 0.0);
  } else {
    // One readback finishes the task (the coarse-granularity win), queued on
    // the stream so it overlaps the next task's kernels.
    stream.copy_to_host_async(emi.data(), emi_dev.buffer,
                              n_bins * sizeof(double));
  }
}

}  // namespace hspec::core
