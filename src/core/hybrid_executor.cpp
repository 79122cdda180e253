#include "core/hybrid_executor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/cpu_task_executor.h"
#include "minimpi/minimpi.h"
#include "util/dcheck.h"
#include "util/fault.h"

namespace hspec::core {

namespace {

void validate(const HybridConfig& config) {
  if (config.ranks < 1)
    throw std::invalid_argument("HybridExecutor: need at least one rank");
  if (config.ranks > kMaxRanks)
    throw std::invalid_argument("HybridExecutor: too many ranks for the queue");
  if (config.max_queue_length < 1)
    throw std::invalid_argument(
        "HybridExecutor: max queue length must be >= 1");
  if (config.pipeline_depth < 1)
    throw std::invalid_argument("HybridExecutor: pipeline depth must be >= 1");
  if (config.steal_chunk < 1)
    throw std::invalid_argument("HybridExecutor: steal chunk must be >= 1");
  if (config.max_task_attempts < 1)
    throw std::invalid_argument(
        "HybridExecutor: max task attempts must be >= 1");
  if (config.degrade_after < 1)
    throw std::invalid_argument("HybridExecutor: degrade_after must be >= 1");
  if (config.quarantine_after < config.degrade_after)
    throw std::invalid_argument(
        "HybridExecutor: quarantine_after must be >= degrade_after");
}

bool all_finite(const apec::Spectrum& s) {
  return std::all_of(s.values().begin(), s.values().end(),
                     [](double v) { return std::isfinite(v); });
}

vgpu::DeviceStats delta(const vgpu::DeviceStats& now,
                        const vgpu::DeviceStats& before) {
  vgpu::DeviceStats d;
  d.kernels_launched = now.kernels_launched - before.kernels_launched;
  d.h2d_copies = now.h2d_copies - before.h2d_copies;
  d.d2h_copies = now.d2h_copies - before.d2h_copies;
  d.bytes_h2d = now.bytes_h2d - before.bytes_h2d;
  d.bytes_d2h = now.bytes_d2h - before.bytes_d2h;
  d.kernel_time_s = now.kernel_time_s - before.kernel_time_s;
  d.transfer_time_s = now.transfer_time_s - before.transfer_time_s;
  return d;
}

}  // namespace

HybridExecutor::HybridExecutor(const apec::SpectrumCalculator& calculator,
                               HybridConfig config)
    : calc_(&calculator),
      config_((validate(config), config)),
      registry_(config.devices),
      shm_(ShmRegion::create_inprocess(
          static_cast<int>(registry_.device_count()),
          config.max_queue_length)),
      policy_(SchedulingPolicy::make(config.scheduling_policy)) {
  n_dev_ = static_cast<int>(registry_.device_count());
  shm_.view().degrade_after = config_.degrade_after;
  shm_.view().quarantine_after = config_.quarantine_after;

  // One shared buffer pool per device: steady-state task execution never
  // touches the device allocator. The per-device stream scheduler and the
  // resident edge cache (leased in pipelined mode) sit on top. All of it
  // lives for the executor's lifetime — the reuse that makes batch N+1's
  // H2D traffic collapse to the per-task minimum.
  for (int d = 0; d < n_dev_; ++d) {
    vgpu::Device& dev = registry_.device(static_cast<std::size_t>(d));
    pools_.push_back(std::make_unique<vgpu::BufferPool>(dev));
    pipes_.push_back(std::make_unique<DevicePipeline>(dev, *pools_.back()));
    pipe_views_.push_back(pipes_.back().get());
  }
}

HybridExecutor::~HybridExecutor() = default;

double HybridExecutor::device_clock(int d) const {
  // Pipelined: the stream clock (overlap-aware). Synchronous: the device's
  // serialized busy time, as the paper's blocking loop would see it.
  const auto du = static_cast<std::size_t>(d);
  return config_.mode == ExecutionMode::pipelined
             ? pipes_[du]->streams->device_sync_time()
             : registry_.device(du).busy_time_s();
}

HybridResult HybridExecutor::run_batch(
    const std::vector<apec::GridPoint>& points) {
  // The exchange runs unconditionally (DCHECK operands compile out in
  // release); the flag itself is the re-entrancy guard either way.
  const bool reentered =
      batch_in_flight_.exchange(true, std::memory_order_acq_rel);
  HSPEC_DCHECK(!reentered,
               "HybridExecutor: run_batch is single-caller; concurrent "
               "batches must be coalesced or serialized by the service");
  (void)reentered;
  // Clears on every exit path — a rank exception must not wedge the
  // executor for the next batch.
  struct InFlightGuard {
    std::atomic<bool>& flag;
    ~InFlightGuard() { flag.store(false, std::memory_order_release); }
  } in_flight_guard{batch_in_flight_};

  // Per-batch delta baseline: the device stack is long-lived, the result
  // describes this batch only.
  std::vector<DeviceSnapshot> before(static_cast<std::size_t>(n_dev_));
  for (int d = 0; d < n_dev_; ++d) {
    auto& snap = before[static_cast<std::size_t>(d)];
    snap.history = shm_.view().history[d].load(std::memory_order_relaxed);
    snap.device = registry_.device(static_cast<std::size_t>(d)).stats();
    snap.cache = pipes_[static_cast<std::size_t>(d)]->cache->stats();
    snap.streams_opened =
        pipes_[static_cast<std::size_t>(d)]->streams_opened.load(
            std::memory_order_relaxed);
    snap.sync_time_s = device_clock(d);
  }

  // Near-equal contiguous seed ranges (the old static split) that ranks
  // drain chunk-by-chunk and rebalance by stealing. Re-initialized per
  // batch; steal counters restart at zero so the result stays per-batch.
  shm_.view().points.initialize(static_cast<std::int64_t>(points.size()),
                                config_.ranks, config_.steal_chunk);

  // Per-batch scheduling telemetry restarts with the point queue.
  shm_.view().reset_sched_latency();

  // Arm fault injection before the ranks start (thread creation publishes
  // the plan pointer). The plan's counters are cumulative across runs, so
  // snapshot them now and report the delta.
  util::FaultPlan* plan = config_.fault_plan;
  util::FaultPlan::Stats plan_before;
  if (plan != nullptr) plan_before = plan->stats();
  if (plan != nullptr) registry_.set_fault_plan(plan);

  HybridResult result;
  result.spectra.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    result.spectra.emplace_back(calc_->grid());

  BatchAccumulator accum;  // cross-rank aggregation of this batch's counters

  minimpi::run(config_.ranks, [&](minimpi::Communicator& comm) {
    const int rank = comm.rank();
    TaskScheduler scheduler(shm_.view());
    // Per-rank QAGS calculator, built once and reused by every CPU-fallback
    // task (the old code rebuilt it per task).
    const CpuTaskExecutor cpu_exec(*calc_);
    FaultStats fs;  // this rank's recovery accounting
    // The one task-execution path; the mode only configures it.
    AsyncGpuExecutor exec(*calc_, pipe_views_, scheduler, cpu_exec,
                          config_.mode, config_.pipeline_depth,
                          config_.max_task_attempts, plan != nullptr, &fs);

    std::size_t my_tasks = 0;
    PointWorkQueue& queue = shm_.view().points;
    if (config_.rank_start_hook) config_.rank_start_hook(rank, queue);
    for (PointWorkQueue::Claim claim = queue.claim(rank); !claim.empty();
         claim = queue.claim(rank)) {
      for (std::int64_t pi = claim.begin; pi < claim.end; ++pi) {
        const auto p = static_cast<std::size_t>(pi);
        const apec::PointPopulations pops =
            apec::solve_populations(calc_->database(), points[p]);
        apec::Spectrum local(calc_->grid());
        for (const SpectralTask& task :
             make_tasks(*calc_, points[p], pops, config_.granularity)) {
          ++my_tasks;
          // The single decision site: Algorithm 1 picks (and reserves) a
          // device, the clock around it feeds the shm latency histogram.
          // Fault-path re-allocations inside the executor go through
          // sche_alloc directly, so the histogram stays one-per-task.
          exec.submit(task, pops, timed_assign(*policy_, task, scheduler),
                      local);
        }
        // All of a point's tasks drain before its spectrum is published;
        // points are claimed exactly once, so accumulation is race-free.
        exec.drain_all();
        // Only finite spectra leave the executor (and reach a cache).
        if (!all_finite(local)) {
          std::ostringstream what;
          what << "HybridExecutor: non-finite spectrum for point " << p
               << " (kT = " << points[p].kT_keV
               << " keV, ne = " << points[p].ne_cm3 << " cm^-3)";
          throw std::domain_error(what.str());
        }
        result.spectra[p] += local;
      }
    }

    // No cross-rank wait here: a rank that threw never arrives, and
    // minimpi::run already joins every rank before the epilogue.
    accum.merge_rank(scheduler.stats(), fs, my_tasks, exec.stats());
  });
  accum.publish(result);
  result.sched = read_scheduling_stats(shm_.view());

  for (int d = 0; d < n_dev_; ++d) {
    const auto du = static_cast<std::size_t>(d);
    const DeviceSnapshot& snap = before[du];
    vgpu::Device& dev = registry_.device(du);
    result.history.push_back(
        shm_.view().history[d].load(std::memory_order_relaxed) - snap.history);
    vgpu::DeviceStats st = delta(dev.stats(), snap.device);
    const vgpu::ResidentCache::Stats cst_now = pipes_[du]->cache->stats();
    vgpu::ResidentCache::Stats cst;
    cst.hits = cst_now.hits - snap.cache.hits;
    cst.misses = cst_now.misses - snap.cache.misses;
    cst.bytes_uploaded = cst_now.bytes_uploaded - snap.cache.bytes_uploaded;
    cst.bytes_saved = cst_now.bytes_saved - snap.cache.bytes_saved;
    st.streams_used =
        pipes_[du]->streams_opened.load(std::memory_order_relaxed) -
        snap.streams_opened;
    st.cache_hits = cst.hits;
    st.bytes_h2d_saved = cst.bytes_saved;
    result.device_stats.push_back(st);

    result.pipeline.streams_used += st.streams_used;
    result.pipeline.cache_hits += cst.hits;
    result.pipeline.cache_misses += cst.misses;
    result.pipeline.bytes_h2d_saved += cst.bytes_saved;

    const double sync_time = device_clock(d) - snap.sync_time_s;
    result.device_sync_time_s.push_back(sync_time);
    result.virtual_makespan_s = std::max(result.virtual_makespan_s, sync_time);
  }
  result.pipeline.steals = static_cast<std::uint64_t>(
      shm_.view().points.steals.load(std::memory_order_relaxed));
  result.pipeline.stolen_points = static_cast<std::uint64_t>(
      shm_.view().points.stolen_points.load(std::memory_order_relaxed));

  // Surface the recovery layer's view of the batch. Health is live state —
  // it deliberately carries across batches (a device quarantined serving
  // one request stays quarantined for the next).
  result.faults.degradations = result.scheduling.degradations;
  result.faults.quarantines = result.scheduling.quarantines;
  result.faults.recoveries = result.scheduling.recoveries;
  result.faults.readmissions = result.scheduling.readmissions;
  for (int d = 0; d < n_dev_; ++d)
    result.device_health.push_back(static_cast<DeviceHealth>(
        shm_.view().health[d].load(std::memory_order_relaxed)));
  if (plan != nullptr) {
    const util::FaultPlan::Stats after = plan->stats();
    result.faults.injected = after.injected_total - plan_before.injected_total;
    result.faults.device_deaths =
        after.device_deaths - plan_before.device_deaths;
    registry_.set_fault_plan(nullptr);  // the plan may not outlive the batch
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

}  // namespace hspec::core
