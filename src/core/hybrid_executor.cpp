#include "core/hybrid_executor.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/gpu_task_executor.h"
#include "minimpi/minimpi.h"
#include "util/dcheck.h"
#include "util/fault.h"

namespace hspec::core {

namespace {

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

/// One rank's task board (DESIGN.md §16): the ion tasks of the grid point
/// the rank owns, open for any rank to claim. One board per rank per batch,
/// reused from point to point.
///
/// The owner fills `pops` and `tasks` while no claim is in flight, then
/// publish() opens them with a release store of the packed word
/// (generation, n, next). A runner claims task `next` with a CAS on that
/// word (acquire on success, so it sees the owner's writes), writes the
/// task's staging array and outcome, and finish() bumps `done` (release).
/// The owner closes the board, and once `done` (acquire) equals the number
/// of tasks claimed, every staging array and outcome is visible to it and
/// no runner touches the board again. A stale generation fails the CAS, so
/// no rank can claim a task of a point the owner has retired.
class alignas(64) TaskBoard {
 public:
  apec::PointPopulations pops;
  std::vector<SpectralTask> tasks;
  std::vector<std::vector<double>> staging;  ///< one emissivity array per task
  std::vector<TaskOutcome> outcome;          ///< per-task state, set by the runner

  /// Open `tasks` for claiming under a new generation.
  void publish() {
    if (tasks.size() > kFieldMask)
      throw std::length_error("HybridExecutor: too many tasks in one point");
    if (staging.size() < tasks.size()) staging.resize(tasks.size());
    outcome.resize(tasks.size());
    done_.store(0, std::memory_order_relaxed);
    const std::uint64_t gen =
        ((word_.load(std::memory_order_relaxed) >> (2 * kFieldBits)) + 1) &
        kGenMask;
    word_.store(pack(gen, tasks.size(), 0), std::memory_order_release);
  }

  /// Claim the next open task: its index, or -1 when none is open.
  std::int64_t claim() {
    std::uint64_t w = word_.load(std::memory_order_acquire);
    while (next(w) < count(w)) {
      if (word_.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                      std::memory_order_acquire))
        return static_cast<std::int64_t>(next(w));
    }
    return -1;
  }

  /// The runner of a claimed task is done with it, failed or not.
  void finish() { done_.fetch_add(1, std::memory_order_release); }

  /// Owner: stop further claims; returns how many tasks were claimed.
  std::uint64_t close() {
    std::uint64_t w = word_.load(std::memory_order_relaxed);
    while (!word_.compare_exchange_weak(
        w, pack(w >> (2 * kFieldBits), count(w), count(w)),
        std::memory_order_relaxed, std::memory_order_relaxed)) {
    }
    return next(w);
  }

  /// Owner: every one of the `claimed` tasks has finished.
  bool settled(std::uint64_t claimed) const {
    return done_.load(std::memory_order_acquire) == claimed;
  }

 private:
  static constexpr int kFieldBits = 20;
  static constexpr std::uint64_t kFieldMask = (1ULL << kFieldBits) - 1;
  static constexpr std::uint64_t kGenMask = (1ULL << (64 - 2 * kFieldBits)) - 1;

  static std::uint64_t pack(std::uint64_t gen, std::uint64_t n,
                            std::uint64_t next) {
    return (gen << (2 * kFieldBits)) | (n << kFieldBits) | next;
  }
  static std::uint64_t count(std::uint64_t w) {
    return (w >> kFieldBits) & kFieldMask;
  }
  static std::uint64_t next(std::uint64_t w) { return w & kFieldMask; }

  std::atomic<std::uint64_t> word_{0};
  std::atomic<std::uint64_t> done_{0};
};

/// Batch-wide cancellation and the ranks' exit condition. The first error
/// on any rank is kept and cancels the batch: owners stop claiming, close
/// their boards and abandon their points; helpers stop helping.
class BatchControl {
 public:
  explicit BatchControl(int ranks) : owners_(ranks) {}

  void fail(std::exception_ptr error) HSPEC_EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      if (!error_) error_ = std::move(error);
    }
    cancelled_.store(true, std::memory_order_release);
  }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// A rank has no point left and its board is settled.
  void owner_done() { owners_.fetch_sub(1, std::memory_order_release); }
  /// Some rank may still publish or own tasks.
  bool owners_working() const {
    return owners_.load(std::memory_order_acquire) > 0;
  }

  /// After the ranks join: rethrow the first error, if any.
  void rethrow_if_failed() HSPEC_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  util::Mutex mu_;
  std::exception_ptr error_ HSPEC_GUARDED_BY(mu_);
  std::atomic<bool> cancelled_{false};
  std::atomic<int> owners_;
};

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
  // the plan pointer), and disarm it on every exit: the plan may not
  // outlive the batch. The plan's counters are cumulative across runs, so
  // snapshot them now and report the delta.
  util::FaultPlan* plan = config_.fault_plan;
  util::FaultPlan::Stats plan_before;
  if (plan != nullptr) plan_before = plan->stats();
  if (plan != nullptr) registry_.set_fault_plan(plan);
  struct PlanGuard {
    vgpu::DeviceRegistry& registry;
    ~PlanGuard() { registry.set_fault_plan(nullptr); }
  } plan_guard{registry_};

  HybridResult result;
  result.spectra.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    result.spectra.emplace_back(calc_->grid());

  BatchAccumulator accum;  // cross-rank aggregation of this batch's counters
  std::vector<TaskBoard> boards(static_cast<std::size_t>(config_.ranks));
  BatchControl control(config_.ranks);

  minimpi::run(config_.ranks, [&](minimpi::Communicator& comm) {
    const int rank = comm.rank();
    TaskScheduler scheduler(shm_.view());
    FaultStats fs;  // this rank's recovery accounting
    // The one task-execution path; the mode only configures it.
    AsyncGpuExecutor exec(*calc_, pipe_views_, scheduler, config_.mode,
                          config_.pipeline_depth, config_.max_task_attempts,
                          plan, &fs);
    TaskBoard& mine = boards[static_cast<std::size_t>(rank)];
    std::size_t my_tasks = 0;
    std::uint64_t shared = 0;

    // Run task `i` of `board`, claimed by this rank. The runner makes the
    // task's one Algorithm 1 decision (the clock around it feeds the shm
    // latency histogram; fault-path re-allocations inside the executor go
    // through sche_alloc directly). An error cancels the batch; either way
    // the task counts as finished, so its owner never waits for it.
    auto run_claimed = [&](TaskBoard& board, std::int64_t i) {
      const auto t = static_cast<std::size_t>(i);
      try {
        const SpectralTask& task = board.tasks[t];
        board.outcome[t] =
            exec.run(task, board.pops, timed_assign(*policy_, task, scheduler),
                     board.staging[t]);
        if (&board != &mine) ++shared;
      } catch (...) {
        control.fail(std::current_exception());
      }
      board.finish();
    };
    // Run one open task of another rank's board; false if none is open.
    auto help_one = [&] {
      if (control.cancelled()) return false;
      for (int k = 1; k < config_.ranks; ++k) {
        TaskBoard& board =
            boards[static_cast<std::size_t>((rank + k) % config_.ranks)];
        const std::int64_t i = board.claim();
        if (i >= 0) {
          run_claimed(board, i);
          return true;
        }
      }
      return false;
    };
    // Close this rank's board and wait, helping, until every task it
    // handed out has finished: only then may the board be reused.
    auto retire = [&] {
      const std::uint64_t claimed = mine.close();
      while (!mine.settled(claimed))
        if (!help_one()) std::this_thread::yield();
    };

    try {
      PointWorkQueue& queue = shm_.view().points;
      if (config_.rank_start_hook) config_.rank_start_hook(rank, queue);
      for (PointWorkQueue::Claim claim = queue.claim(rank);
           !claim.empty() && !control.cancelled(); claim = queue.claim(rank)) {
        for (std::int64_t pi = claim.begin;
             pi < claim.end && !control.cancelled(); ++pi) {
          const auto p = static_cast<std::size_t>(pi);
          mine.pops = apec::solve_populations(calc_->database(), points[p]);
          mine.tasks =
              make_tasks(*calc_, points[p], mine.pops, config_.granularity);
          my_tasks += mine.tasks.size();
          mine.publish();
          while (!control.cancelled()) {
            const std::int64_t i = mine.claim();
            if (i < 0) break;
            run_claimed(mine, i);
          }
          retire();
          if (control.cancelled()) break;

          // One accumulation, in task order, whoever ran each task: the
          // add order of the single-rank executor, so spectra are bitwise
          // independent of the sharing. Closed-form tasks run here, at their
          // position.
          apec::Spectrum local(calc_->grid());
          for (std::size_t i = 0; i < mine.tasks.size(); ++i) {
            const SpectralTask& task = mine.tasks[i];
            switch (mine.outcome[i]) {
              case TaskOutcome::emi:
                accumulate_task_result(*calc_, task, mine.pops,
                                       mine.staging[i], local);
                break;
              case TaskOutcome::closed_form:
                calc_->accumulate_ion(task.ion, mine.pops, local);
                break;
            }
          }
          // Only finite spectra leave the executor (and reach a cache).
          if (!all_finite(local)) {
            std::ostringstream what;
            what << "HybridExecutor: non-finite spectrum for point " << p
                 << " (kT = " << points[p].kT_keV
                 << " keV, ne = " << points[p].ne_cm3 << " cm^-3)";
            throw std::domain_error(what.str());
          }
          // Points are claimed exactly once, so this is race-free.
          result.spectra[p] += local;
        }
      }
    } catch (...) {
      // Nothing above throws while this rank's board has tasks out:
      // run_claimed keeps its task's error, and retire() comes before the
      // accumulation.
      control.fail(std::current_exception());
    }
    control.owner_done();
    // No point left here: help the owners still working, then leave.
    while (control.owners_working() && !control.cancelled())
      if (!help_one()) std::this_thread::yield();

    accum.merge_rank(scheduler.stats(), fs, my_tasks, shared, exec.stats());
  });
  control.rethrow_if_failed();
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
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

}  // namespace hspec::core
