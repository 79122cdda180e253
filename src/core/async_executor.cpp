#include "core/async_executor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/gpu_task_executor.h"
#include "util/dcheck.h"
#include "util/fault.h"

namespace hspec::core {

AsyncGpuExecutor::AsyncGpuExecutor(const apec::SpectrumCalculator& calc,
                                   const std::vector<DevicePipeline*>& pipelines,
                                   TaskScheduler& scheduler,
                                   const CpuTaskExecutor& cpu,
                                   ExecutionMode mode, int depth,
                                   int max_attempts, bool recovery,
                                   FaultStats* fault_stats)
    : calc_(&calc),
      pipelines_(pipelines),
      scheduler_(&scheduler),
      cpu_(&cpu),
      mode_(mode),
      depth_(mode == ExecutionMode::synchronous ? 1 : depth),
      max_attempts_(max_attempts),
      recovery_(recovery),
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

AsyncGpuExecutor::~AsyncGpuExecutor() { drain_all(); }

void AsyncGpuExecutor::submit(const SpectralTask& task,
                              const apec::PointPopulations& pops, int device,
                              apec::Spectrum& spectrum) {
  if (device >= static_cast<int>(pipelines_.size()))
    throw std::out_of_range("AsyncGpuExecutor::submit: bad device id");

  Slot slot;
  slot.task = task;
  slot.pops = &pops;
  slot.target = &spectrum;
  slot.free_device = device;

  // Closed-form / non-emitting ions never launch kernels; they still travel
  // through the FIFO so the accumulation order is the submission order.
  const bool closed_form = task.closed_form();
  if (device >= 0 && !closed_form) {
    // Bounded retry-with-requeue: a faulted attempt returns its buffers,
    // frees its queue slot, reports the failure, and asks the scheduler for
    // a (possibly different) device; past the budget the task degrades to
    // the host at drain time. submit_gpu accumulates nothing — results land
    // in the slot's staging buffer and reach the spectrum only at drain —
    // so a fault mid-submit cannot double-count (DESIGN.md §11).
    for (int attempt = 1;; ++attempt) {
      try {
        slot.free_device = device;
        submit_gpu(slot, device);
        if (recovery_) scheduler_->report_task_success(device);
        ++stats_.gpu_tasks;
        if (fstats_ != nullptr) ++fstats_->gpu_completed;
        break;
      } catch (const util::FaultError& e) {
        abort_slot(slot, device);
        scheduler_->sche_free(device);
        scheduler_->report_task_fault(
            device, e.site() == util::FaultSite::device_death);
        if (fstats_ != nullptr) ++fstats_->retried;
        device = attempt < max_attempts_ ? scheduler_->sche_alloc() : -1;
        if (device >= 0) {
          if (fstats_ != nullptr) ++fstats_->requeued;
          continue;
        }
        slot.free_device = -1;
        slot.degraded = true;
        if (fstats_ != nullptr) {
          ++fstats_->cpu_fallbacks;
          ++fstats_->cpu_completed;
        }
        break;
      }
    }
  } else {
    // An all-quarantined verdict degrades to the kernel-equivalent host
    // path (bit-identity); a plain full-queue verdict stays on QAGS, the
    // paper's fallback.
    if (device < 0 && !closed_form && recovery_ &&
        scheduler_->all_quarantined()) {
      slot.degraded = true;
      if (fstats_ != nullptr) ++fstats_->cpu_fallbacks;
    }
    if (fstats_ != nullptr) {
      // A closed-form task that holds a device slot counts as a GPU
      // completion, as execute_task_on_gpu's early-out does.
      if (device >= 0)
        ++fstats_->gpu_completed;
      else
        ++fstats_->cpu_completed;
    }
  }
  fifo_.push_back(std::move(slot));
  // The paper's blocking loop: the task finishes before the rank moves on.
  if (mode_ == ExecutionMode::synchronous) drain_all();
}

void AsyncGpuExecutor::submit_gpu(Slot& slot, int device) {
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
  // Double-buffer bound: at most `depth_` of this rank's tasks in flight per
  // device. Draining the FIFO front (oldest first, any device) preserves the
  // accumulation order; host-only slots drained on the way cost nothing.
  while (lane.in_flight >= depth_) drain_front();

  const apec::EnergyGrid& grid = calc_->grid();
  const std::size_t n_bins = grid.bin_count();
  const std::size_t edge_bytes = (n_bins + 1) * sizeof(double);

  slot.gpu = true;
  slot.emi = pipe.pool->acquire(n_bins * sizeof(double));
  if (staging_pool_.empty()) {
    slot.staging.resize(n_bins);
  } else {
    slot.staging = std::move(staging_pool_.back());
    staging_pool_.pop_back();
    slot.staging.resize(n_bins);
  }

  vgpu::Stream& stream = *lane.streams[lane.next_stream];
  lane.next_stream = (lane.next_stream + 1) % lane.streams.size();

  // The bin edges are immutable for the executor's lifetime: pipelined
  // mode leases the resident copy instead of paying the (n_bins + 1) *
  // 8-byte H2D per task; synchronous mode uploads them per task, as the
  // paper's blocking loop did.
  const vgpu::DeviceBuffer* edges_dev = nullptr;
  if (mode_ == ExecutionMode::pipelined) {
    edges_dev = &pipe.cache->lease(grid.edges().data(), edge_bytes);
  } else {
    slot.edges = pipe.pool->acquire(edge_bytes);
    stream.copy_to_device_async(slot.edges, grid.edges().data(), edge_bytes);
    edges_dev = &slot.edges;
  }

  if (integrate_task_levels(*calc_, slot.task, *slot.pops,
                            {&stream, edges_dev, &slot.emi, {}},
                            lane.arena) == 0) {
    // No levels => nothing was written; drain still adds the staging array.
    std::fill(slot.staging.begin(), slot.staging.end(), 0.0);
  } else {
    // One readback finishes the task (the coarse-granularity win), queued on
    // the stream so it overlaps the next task's kernels.
    stream.copy_to_host_async(slot.staging.data(), slot.emi,
                              n_bins * sizeof(double));
  }

  ++lane.in_flight;
  HSPEC_DCHECK(lane.in_flight >= 1 && lane.in_flight <= depth_,
               "pipeline lane in-flight count outside [1, depth]");
  std::uint64_t in_flight_total = 0;
  for (const Lane& l : lanes_)
    in_flight_total += static_cast<std::uint64_t>(l.in_flight);
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_total);
}

void AsyncGpuExecutor::abort_slot(Slot& slot, int device) noexcept {
  // Undo the partial submit: the device buffers go back to the pool and the
  // staging array to the recycle list. lane.in_flight needs no undo — it is
  // incremented only after the last fallible operation in submit_gpu.
  vgpu::BufferPool& pool = *pipelines_[static_cast<std::size_t>(device)]->pool;
  pool.release(std::move(slot.edges));
  pool.release(std::move(slot.emi));
  if (!slot.staging.empty()) staging_pool_.push_back(std::move(slot.staging));
  slot.staging.clear();
  slot.gpu = false;
}

void AsyncGpuExecutor::drain_front() {
  Slot slot = std::move(fifo_.front());
  fifo_.pop_front();

  if (slot.gpu) {
    accumulate_task_result(*calc_, slot.task, *slot.pops, slot.staging,
                           *slot.target);
    DevicePipeline& pipe = *pipelines_[static_cast<std::size_t>(slot.free_device)];
    pipe.pool->release(std::move(slot.edges));
    pipe.pool->release(std::move(slot.emi));
    staging_pool_.push_back(std::move(slot.staging));
    Lane& lane = lanes_[static_cast<std::size_t>(slot.free_device)];
    --lane.in_flight;
    HSPEC_DCHECK(lane.in_flight >= 0,
                 "pipeline lane drained more tasks than it submitted");
  } else if (slot.degraded) {
    // Retry budget exhausted or every device quarantined: the kernel-
    // equivalent host path, in FIFO position (bitwise what the device
    // would have produced).
    execute_task_degraded(*calc_, slot.task, *slot.pops, *slot.target);
  } else if (slot.free_device >= 0) {
    // Scheduler sent the task to a device but it has a closed form / no RRC
    // emission: execute_task_on_gpu's early-out, deferred to its FIFO
    // position.
    calc_->accumulate_ion(slot.task.ion, *slot.pops, *slot.target);
  } else {
    // CPU fallback (queues full): QAGS on this rank, in submission order.
    cpu_->execute(slot.task, *slot.pops, *slot.target);
  }

  if (slot.free_device >= 0) scheduler_->sche_free(slot.free_device);
}

void AsyncGpuExecutor::drain_all() {
  while (!fifo_.empty()) drain_front();
}

}  // namespace hspec::core
