#pragma once
// The one task executor — the paper's §V remedy built out: "Only
// synchronous mode is supported in the task scheduler ... some asynchronous
// task queuing mechanism must be introduced to keep CPUs busy."
//
// Every task of every batch runs through AsyncGpuExecutor::submit, whatever
// the ExecutionMode; the mode only configures it. One task type and one
// place that picks its implementation: the device kernels on a stream, the
// kernel-equivalent host path (degraded), or QAGS (full queues).
//
//  * pipelined (production): `pipeline_depth` streams per rank per device,
//    so the H2D-free kernel chain and D2H readback of consecutive tasks
//    overlap per the device's concurrency rules (copy / compute overlap on
//    Fermi, up to 32-wide Hyper-Q on Kepler); the bin edges are leased from
//    the device's ResidentCache — one upload per device for the executor's
//    lifetime instead of one per task; and each in-flight task owns an emi
//    device buffer plus a host staging array, recycled through the
//    device's BufferPool as tasks drain;
//  * synchronous (the paper's blocking loop, kept as the ablation
//    baseline): depth 1, the bin edges uploaded per task from the pool over
//    the stream (no resident lease), and every task drained before submit
//    returns, so a rank holds at most one device slot.
//
// Ordering contract: results drain through one per-rank FIFO in submission
// order, and CPU-fallback / closed-form tasks travel through the same FIFO,
// so the floating-point accumulation order is the same in both modes —
// spectra are bit-identical between them. (On the virtual GPU all work
// executes eagerly on the host; deferring the *accumulation* costs nothing
// real and keeps the virtual timeline honest.)

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "apec/calculator.h"
#include "apec/spectrum.h"
#include "core/cpu_task_executor.h"
#include "core/hybrid.h"
#include "core/scheduler.h"
#include "core/task.h"
#include "vgpu/arena.h"
#include "vgpu/buffer_pool.h"
#include "vgpu/device.h"
#include "vgpu/resident_cache.h"
#include "vgpu/stream.h"

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

/// One rank's task executor. Not thread-safe: each rank owns one.
class AsyncGpuExecutor {
 public:
  struct Stats {
    std::uint64_t gpu_tasks = 0;    ///< tasks that ran on a device stream
    std::uint64_t max_in_flight = 0;  ///< pipeline high-water mark (GPU tasks)
  };

  /// `pipelines[d]` must outlive the executor. `mode` configures it (see
  /// the file comment); `depth` is the number of in-flight tasks (and
  /// streams) this rank keeps per device when pipelined — synchronous mode
  /// always runs at depth 1. `max_attempts` bounds device attempts per task
  /// before it degrades to the host; `recovery` arms the health reporting
  /// (set when a FaultPlan is installed, so the fault-free hot path pays
  /// nothing); `fault_stats`, when non-null, receives this rank's recovery
  /// accounting.
  AsyncGpuExecutor(const apec::SpectrumCalculator& calc,
                   const std::vector<DevicePipeline*>& pipelines,
                   TaskScheduler& scheduler, const CpuTaskExecutor& cpu,
                   ExecutionMode mode, int depth, int max_attempts,
                   bool recovery, FaultStats* fault_stats);

  /// Queue one task. `device` is the scheduler's verdict: >= 0 runs the
  /// task on that device (the load slot is released when the task drains),
  /// -1 defers it to the QAGS path. May drain older tasks to honour the
  /// depth; in synchronous mode the task has drained when this returns.
  void submit(const SpectralTask& task, const apec::PointPopulations& pops,
              int device, apec::Spectrum& spectrum);

  /// Drain every in-flight task (accumulate + sche_free, in order). Must be
  /// called before reading any spectrum passed to submit() — the driver
  /// drains at each grid-point boundary.
  void drain_all();

  ~AsyncGpuExecutor();  // drains; a non-empty pipeline must not be dropped

  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Slot {
    SpectralTask task;
    const apec::PointPopulations* pops = nullptr;
    apec::Spectrum* target = nullptr;
    int free_device = -1;  ///< sche_free() this device on drain (-1: none)
    bool gpu = false;      ///< emi/staging hold device results to accumulate
    /// Retry budget exhausted (or all devices quarantined): drain runs the
    /// kernel-equivalent host path in this slot's FIFO position, keeping
    /// the accumulation order — and hence bit-identity — intact.
    bool degraded = false;
    /// Synchronous mode's per-task copy of the bin edges (pipelined mode
    /// leases the resident copy instead and leaves this invalid).
    vgpu::DeviceBuffer edges;
    vgpu::DeviceBuffer emi;
    std::vector<double> staging;
  };

  struct Lane {
    std::vector<std::unique_ptr<vgpu::Stream>> streams;
    std::size_t next_stream = 0;
    int in_flight = 0;
    /// Batch-integrand scratch for this rank's launches on the device,
    /// reset once per submitted task: stream launches execute eagerly on
    /// the host, so nothing in flight holds arena spans, and steady-state
    /// tasks allocate nothing.
    vgpu::ScratchArena arena;
  };

  void submit_gpu(Slot& slot, int device);
  void drain_front();
  /// Undo a partially submitted slot after a fault (return its buffers).
  void abort_slot(Slot& slot, int device) noexcept;

  const apec::SpectrumCalculator* calc_;
  std::vector<DevicePipeline*> pipelines_;
  TaskScheduler* scheduler_;
  const CpuTaskExecutor* cpu_;
  ExecutionMode mode_;
  int depth_;
  int max_attempts_;
  bool recovery_;
  FaultStats* fstats_;
  std::vector<Lane> lanes_;            // one per device
  std::deque<Slot> fifo_;              // drains in submission order
  std::vector<std::vector<double>> staging_pool_;
  Stats stats_;
};

}  // namespace hspec::core
