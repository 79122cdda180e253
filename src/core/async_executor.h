#pragma once
// The one task executor — the paper's §V remedy built out: "Only
// synchronous mode is supported in the task scheduler ... some asynchronous
// task queuing mechanism must be introduced to keep CPUs busy."
//
// Every task of every batch runs through AsyncGpuExecutor::run, whatever
// the ExecutionMode; the mode only configures it. One task type and one
// place that picks where it runs: the device kernels on a stream, or the
// kernel-equivalent host path (integrate_task_degraded) when every queue is
// full, every device is quarantined or the retry budget is spent — the
// same function either way, so the placement never shows in the bits. The
// closed form is left to the owning rank.
//
//  * pipelined (production): `pipeline_depth` streams per rank per device,
//    so the H2D-free kernel chain and D2H readback of consecutive tasks
//    overlap per the device's concurrency rules (copy / compute overlap on
//    Fermi, up to 32-wide Hyper-Q on Kepler); the bin edges are leased from
//    the device's ResidentCache — one upload per device for the executor's
//    lifetime instead of one per task;
//  * synchronous (the paper's blocking loop, kept as the ablation
//    baseline): one stream per rank per device, and the bin edges uploaded
//    per task from the pool over the stream (no resident lease).
//
// A task finishes inside run(): its raw per-bin emissivity lands in the
// caller's staging array and its device slot is freed before run returns,
// so the executor holds nothing between calls and a task may run on any
// rank. Accumulation into a spectrum is the owning rank's job, in task
// order (HybridExecutor's task board, DESIGN.md §16), which keeps spectra
// bit-identical whichever rank ran which task. (On the virtual GPU all
// work executes eagerly on the host; the virtual timeline follows the
// streams, not the host order.)

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "apec/calculator.h"
#include "core/hybrid.h"
#include "core/scheduler.h"
#include "core/task.h"
#include "vgpu/arena.h"
#include "vgpu/buffer_pool.h"
#include "vgpu/device.h"
#include "vgpu/resident_cache.h"
#include "vgpu/stream.h"

namespace hspec::util {
class FaultPlan;
}

namespace hspec::core {

/// Shared per-device pipeline plumbing, owned by the driver and used by
/// every rank's AsyncGpuExecutor: the overlap scheduler all the device's
/// streams funnel into, the resident cache holding the bin edges, and the
/// buffer pool the emi accumulators recycle through.
struct DevicePipeline {
  // The plumbing pointers are fixed at construction (const-hardened): the
  // pipeline is shared by every rank, and only `streams_opened` — an atomic
  // counter — mutates after the ctor, so the struct needs no lock.
  vgpu::Device* const device;
  const std::unique_ptr<vgpu::StreamScheduler> streams;
  const std::unique_ptr<vgpu::ResidentCache> cache;
  vgpu::BufferPool* const pool;
  std::atomic<std::uint64_t> streams_opened{0};  ///< across all ranks

  explicit DevicePipeline(vgpu::Device& dev, vgpu::BufferPool& buffer_pool)
      : device(&dev),
        streams(std::make_unique<vgpu::StreamScheduler>(dev)),
        cache(std::make_unique<vgpu::ResidentCache>(dev)),
        pool(&buffer_pool) {}
};

/// What run() leaves for the rank that owns the task's grid point to add
/// to the spectrum, at the task's position.
enum class TaskOutcome : std::uint8_t {
  emi,          ///< the staging array holds the per-bin emissivity
  closed_form,  ///< accumulate the ion's closed form on the host
};

/// One rank's task executor. Not thread-safe: each rank owns one.
class AsyncGpuExecutor {
 public:
  struct Stats {
    std::uint64_t gpu_tasks = 0;  ///< tasks that ran on a device stream
  };

  /// `pipelines[d]` must outlive the executor. `mode` configures it (see
  /// the file comment); `depth` is the number of streams this rank rotates
  /// over per device when pipelined — synchronous mode always uses one.
  /// `max_attempts` bounds device attempts per task before it degrades to
  /// the host; a non-null `plan` arms the health reporting and the
  /// host-side task_throw site (the fault-free hot path pays nothing);
  /// `fault_stats`, when non-null, receives this rank's recovery
  /// accounting.
  AsyncGpuExecutor(const apec::SpectrumCalculator& calc,
                   const std::vector<DevicePipeline*>& pipelines,
                   TaskScheduler& scheduler, ExecutionMode mode, int depth,
                   int max_attempts, util::FaultPlan* plan,
                   FaultStats* fault_stats);

  /// Run one task. `device` is the scheduler's verdict: >= 0 runs the task
  /// on that device; -1 (every queue full, or every device quarantined)
  /// runs it on the calling thread through the kernel-equivalent host
  /// replay. The device slot is released before run returns, on every
  /// path, exceptions included. Device faults retry with requeue and, past
  /// the budget, degrade to the same host replay; either way an `emi`
  /// outcome has written all of `emi` (resized to the grid's bin count).
  /// Any other error propagates.
  TaskOutcome run(const SpectralTask& task, const apec::PointPopulations& pops,
                  int device, std::vector<double>& emi);

  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Lane {
    std::vector<std::unique_ptr<vgpu::Stream>> streams;
    std::size_t next_stream = 0;
    /// Batch-integrand scratch for this rank's launches on the device,
    /// reset once per task: stream launches execute eagerly on the host,
    /// so nothing in flight holds arena spans, and steady-state tasks
    /// allocate nothing.
    vgpu::ScratchArena arena;
  };

  /// One device attempt: the level kernels on this rank's next stream and
  /// the one readback into `emi`. Throws util::FaultError on a fault; the
  /// device buffers go back to the pool on every path.
  void run_on_device(const SpectralTask& task,
                     const apec::PointPopulations& pops, int device,
                     std::span<double> emi);

  const apec::SpectrumCalculator* calc_;
  std::vector<DevicePipeline*> pipelines_;
  TaskScheduler* scheduler_;
  ExecutionMode mode_;
  int depth_;
  int max_attempts_;
  util::FaultPlan* plan_;
  FaultStats* fstats_;
  std::vector<Lane> lanes_;  // one per device
  Stats stats_;
};

}  // namespace hspec::core
