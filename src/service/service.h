#pragma once
// The always-on spectral service (DESIGN.md §13): a long-lived in-process
// server wrapped around one core::HybridExecutor.
//
// Lifecycle of a request:
//
//   submit(points)            — any thread (minimpi ranks included); an
//     invalid point is refused here, for this request only; the
//     admission gate applies here: with the queue at max_pending_points the
//     call blocks (Admission::block) or throws ServiceOverloaded
//     (Admission::reject);
//   coalescing               — the single worker thread pops every queued
//     request (up to max_batch_points of cache misses), resolves each point
//     against the GridCache, deduplicates same-bucket misses *across*
//     requests, and hands the surviving points to the executor as ONE
//     batch — tasks from distinct requests share device queues, streams
//     and resident edges;
//   completion               — computed spectra are published to the cache
//     and fanned back out to every consuming request; each Ticket::wait()
//     returns the spectra plus per-request ServiceStats (queue wait, batch
//     occupancy, cache and fault telemetry).
//
// Threading: submit/Ticket are thread-safe; one worker thread owns the
// executor (run_batch is single-caller by contract). No lock is ever held
// across an executor call — cache shard locks least of all (hlint
// [lock-blocking], which checks the whole call graph, not just the lock
// scope's own text). The HSPEC_* annotations below let the clang
// thread-safety build prove the same discipline a second way.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apec/calculator.h"
#include "apec/spectrum.h"
#include "core/hybrid.h"
#include "core/hybrid_executor.h"
#include "service/grid_cache.h"
#include "util/thread_annotations.h"

namespace hspec::service {

struct ServiceConfig {
  core::HybridConfig hybrid;
  GridCacheConfig cache;
  /// Admission bound: grid points allowed in the submit queue before the
  /// gate closes. A request larger than the whole bound is admitted alone
  /// (it could otherwise never run).
  std::size_t max_pending_points = 1024;
  enum class Admission {
    block,   ///< submit() waits for queue space (backpressure)
    reject,  ///< submit() throws ServiceOverloaded immediately
  };
  Admission admission = Admission::block;
  /// Coalescing cap: cache-missing points per executor batch.
  std::size_t max_batch_points = 64;
  /// false: the worker starts on start(), not construction. Deterministic
  /// coalescing seam for tests (queue several requests, then start) and a
  /// warm-up hook for deployments that pre-load the cache.
  bool autostart = true;
};

/// submit() verdict under Admission::reject with the queue full.
class ServiceOverloaded : public std::runtime_error {
 public:
  ServiceOverloaded()
      : std::runtime_error(
            "SpectralService: request queue full (admission control)") {}
};

/// submit() after stop() — the service no longer accepts work.
class ServiceStopped : public std::runtime_error {
 public:
  ServiceStopped()
      : std::runtime_error("SpectralService: service is stopped") {}
};

/// Per-request telemetry, returned alongside the spectra. Satellite of
/// DESIGN.md §13: fault/recovery activity is re-surfaced here so service
/// clients never dig into core::HybridResult.
struct ServiceStats {
  /// Submit-to-dispatch wait (the admission/coalescing queue).
  double queue_wait_s = 0.0;
  /// Points in the executor batch that served this request's misses (0 for
  /// a fully cached request).
  std::size_t batch_points = 0;
  /// Distinct requests that contributed points to that batch. > 1 means
  /// this request shared its device batch — the cross-request coalescing
  /// criterion.
  std::size_t batch_requests = 0;
  std::uint64_t cache_hits = 0;          ///< this request's exact hits
  std::uint64_t cache_misses = 0;        ///< points that went to the batch
  std::uint64_t cache_interpolated = 0;  ///< near-hits served by interpolation
  /// Recovery accounting of the batch that computed this request's misses
  /// (zeroes for a fully cached request or a fault-free run).
  core::FaultStats faults;
  /// Scheduling-latency telemetry of that batch (core/sched_policy.h):
  /// how many decisions, and the latency histogram.
  /// Zero decisions for a fully cached request.
  core::SchedulingStats sched;
  /// Device health after that batch (live executor state; empty for a
  /// fully cached request).
  std::vector<core::DeviceHealth> device_health;
};

struct ServiceReply {
  std::vector<apec::Spectrum> spectra;  ///< one per submitted point, in order
  ServiceStats stats;
};

class SpectralService {
 public:
  /// Builds the long-lived executor (devices, pools, resident caches) and,
  /// unless `config.autostart` is false, starts the worker thread.
  SpectralService(const apec::SpectrumCalculator& calculator,
                  ServiceConfig config);
  ~SpectralService();  // stop() + join

  SpectralService(const SpectralService&) = delete;
  SpectralService& operator=(const SpectralService&) = delete;

  /// A submitted request's handle. Copyable; wait() may be called from any
  /// thread and rethrows the batch's failure if the computation threw.
  class Ticket {
   public:
    ServiceReply wait() { return future_.get(); }
    bool done() const {
      return future_.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    }

   private:
    friend class SpectralService;
    explicit Ticket(std::shared_future<ServiceReply> f)
        : future_(std::move(f)) {}
    std::shared_future<ServiceReply> future_;
  };

  /// Thread-safe submit. Throws std::invalid_argument, before admission,
  /// if any point has a non-finite or non-positive kT or ne
  /// (apec::validate_point). Blocks or throws ServiceOverloaded at the
  /// admission gate per config; throws ServiceStopped after stop().
  Ticket submit(std::vector<apec::GridPoint> points) HSPEC_EXCLUDES(mu_);

  /// Start the worker (no-op when running). Only needed with
  /// autostart = false.
  void start() HSPEC_EXCLUDES(mu_);

  /// Drain every queued request, then stop the worker. Idempotent.
  /// Requests submitted after stop() throw ServiceStopped.
  void stop() HSPEC_EXCLUDES(mu_);

  /// Whole-service counters (monotonic; readable any time).
  struct Telemetry {
    std::uint64_t requests_submitted = 0;
    std::uint64_t requests_rejected = 0;   ///< admission gate (reject policy)
    std::uint64_t requests_completed = 0;
    std::uint64_t batches = 0;             ///< executor batches dispatched
    std::uint64_t coalesced_batches = 0;   ///< batches fed by >= 2 requests
    std::uint64_t max_batch_points = 0;    ///< deepest batch occupancy seen
    std::uint64_t max_batch_requests = 0;  ///< most requests in one batch
  };
  Telemetry telemetry() const;

  const GridCache& cache() const noexcept { return cache_; }
  GridCacheStats cache_stats() const noexcept { return cache_.stats(); }
  const ServiceConfig& config() const noexcept { return config_; }
  int device_count() const noexcept { return executor_.device_count(); }

 private:
  struct Request {
    std::vector<apec::GridPoint> points;
    std::chrono::steady_clock::time_point submitted;
    std::promise<ServiceReply> promise;
  };

  void worker_loop() HSPEC_EXCLUDES(mu_);
  /// Pop one coalesced group off the queue (whole requests up to the batch
  /// cap). Caller holds mu_ — the lock covers queue surgery only.
  std::vector<std::unique_ptr<Request>> take_group_locked()
      HSPEC_REQUIRES(mu_);
  /// Resolve one coalesced group of requests: cache pass, one executor
  /// batch for the deduplicated misses, fan-out, promise fulfilment. Must
  /// run lock-free: it blocks on the executor.
  void dispatch(std::vector<std::unique_ptr<Request>> group)
      HSPEC_EXCLUDES(mu_);

  const apec::SpectrumCalculator* calc_;
  ServiceConfig config_;
  core::HybridExecutor executor_;
  GridCache cache_;

  util::Mutex mu_;
  std::condition_variable_any work_cv_;   // worker wakeups
  std::condition_variable_any space_cv_;  // blocked submitters
  std::deque<std::unique_ptr<Request>> queue_ HSPEC_GUARDED_BY(mu_);
  std::size_t pending_points_ HSPEC_GUARDED_BY(mu_) = 0;
  bool stop_ HSPEC_GUARDED_BY(mu_) = false;
  bool running_ HSPEC_GUARDED_BY(mu_) = false;
  /// Written under mu_ (start) and moved out under mu_ (stop); the join
  /// itself happens on the moved-out handle, outside the lock.
  std::thread worker_ HSPEC_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> requests_submitted_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> requests_completed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> coalesced_batches_{0};
  std::atomic<std::uint64_t> max_batch_points_{0};
  std::atomic<std::uint64_t> max_batch_requests_{0};
};

}  // namespace hspec::service
