#pragma once
// The shared-memory segment of the paper's scheduler (§III-C):
// "the local task scheduler communicates with MPI processes and GPUs via
//  share memory. The shared memory contains two types of arrays, one is the
//  load count of task queue on each device, and the other is the history
//  task count of each device."
//
// Two backends provide the same SchedulerShm view:
//  * in-process — the ranks of this library are threads (see minimpi), so a
//    heap segment of lock-free atomics is the exact analogue;
//  * POSIX — shm_open/mmap, byte-for-byte the paper's shmat() layout, usable
//    across real processes (exercised by tests to prove layout correctness).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace hspec::core {

/// Maximum GPUs one node's scheduler can manage.
inline constexpr int kMaxDevices = 64;

/// Maximum ranks the work-stealing point queue can partition across.
inline constexpr int kMaxRanks = 128;

/// Scheduling-latency histogram resolution (DESIGN.md §15). Buckets are
/// quarter-octaves of nanoseconds: bucket 4*o + s holds latencies in
/// [(1 + s/4) * 2^o, (1 + (s+1)/4) * 2^o) ns, so every decision lands in a
/// bucket within ~25% of its true latency. 64 buckets span [1 ns, 64 us);
/// the last bucket is open-ended and bucket 0 additionally absorbs sub-ns
/// readings (clock granularity).
inline constexpr int kSchedLatencyBuckets = 64;

/// Bucket index for one scheduling-decision latency (see above).
int sched_latency_bucket(std::int64_t ns) noexcept;

/// Exclusive upper bound of `bucket` in nanoseconds (the value the median /
/// quantile estimators report for samples inside it).
double sched_latency_bucket_upper_ns(int bucket) noexcept;

/// Work-stealing distribution of grid points across ranks, living in the
/// same shared segment as the Algorithm 1 arrays. Each rank owns an initial
/// contiguous range (the old static split) and claims chunks from its own
/// cursor; a rank whose range is exhausted steals chunks from the victim
/// with the most unclaimed points instead of idling until the batch joins.
/// Cursors only grow, so every point index is handed out exactly once even
/// when thieves race; a fetch_add that lands past the range end simply
/// claims nothing.
struct PointWorkQueue {
  std::atomic<std::int64_t> cursor[kMaxRanks];  ///< next unclaimed point
  std::int64_t range_begin[kMaxRanks];
  std::int64_t range_end[kMaxRanks];
  std::atomic<std::int64_t> steals;             ///< chunks taken from others
  std::atomic<std::int64_t> stolen_points;      ///< points those chunks held
  std::int32_t nranks;
  std::int64_t chunk;

  /// Partition [0, n_points) into near-equal contiguous ranges (identical
  /// to the old static split) claimed `chunk_size` points at a time.
  /// Throws std::invalid_argument on `ranks` outside [0, kMaxRanks] (an
  /// out-of-range count would write past the cursor arrays), negative
  /// `n_points`, points with zero ranks, or `chunk_size < 1`.
  void initialize(std::int64_t n_points, std::int32_t ranks,
                  std::int64_t chunk_size);

  struct Claim {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    bool stolen = false;
    bool empty() const noexcept { return begin >= end; }
  };

  /// Claim the next chunk of points for `rank`: its own range first, then
  /// steal from the most-loaded victim. Empty claim => all points handed out.
  Claim claim(int rank) noexcept;

  /// Points not yet claimed by anyone (racy snapshot, for reporting).
  std::int64_t remaining() const noexcept;
};

/// Per-device recovery state machine (DESIGN.md §11). Transitions are
/// driven by consecutive failed task attempts: healthy -> degraded after
/// `degrade_after`, -> quarantined after `quarantine_after` (or immediately
/// on device death); a success resets the streak and promotes degraded back
/// to healthy; readmission drops quarantined to degraded (probation).
/// Numeric values order by severity so promotion is a monotone CAS.
enum class DeviceHealth : std::int32_t {
  healthy = 0,
  degraded = 1,
  quarantined = 2,
};

const char* to_string(DeviceHealth health) noexcept;

/// POD-with-atomics segment: load l_i and history h_i per device
/// (Algorithm 1's global variables), plus the work-stealing point queue
/// and the per-device recovery state.
/// Lock-free on every target we support.
struct SchedulerShm {
  std::atomic<std::int32_t> load[kMaxDevices];
  std::atomic<std::int64_t> history[kMaxDevices];
  /// DeviceHealth values; quarantined devices are masked as full by
  /// sche_alloc so they drain to the CPU path exactly as a full queue does.
  std::atomic<std::int32_t> health[kMaxDevices];
  /// Consecutive failed task attempts since the device's last success.
  std::atomic<std::int32_t> faults_seen[kMaxDevices];
  std::int32_t device_count;
  /// Queue bound read by every rank's sche_alloc scan. Atomic because the
  /// autotuner retunes it at runtime (TaskScheduler::set_max_queue_length)
  /// while ranks are scheduling; relaxed ordering everywhere — the bound is
  /// advisory and carries no release payload.
  std::atomic<std::int32_t> max_queue_length;
  /// Health thresholds on the consecutive-fault streak. Set before ranks
  /// start (unlike max_queue_length these are never retuned, so plain).
  std::int32_t degrade_after;
  std::int32_t quarantine_after;
  PointWorkQueue points;
  /// Per-task scheduling-latency histogram (DESIGN.md §15): every *primary*
  /// allocation decision — the one timed_assign() clocks between "task
  /// ready" and "device assigned" — lands in exactly one bucket, so the
  /// bucket counts sum to tasks_total (fault-retry re-allocations go through
  /// sche_alloc directly and are deliberately not recorded). Reset once per
  /// batch by the executor, like the point queue.
  std::atomic<std::int64_t> sched_latency_hist[kSchedLatencyBuckets];
  std::atomic<std::int64_t> sched_latency_ns_total;

  /// Zero the scheduling-latency histogram (single-threaded, batch start).
  void reset_sched_latency() noexcept;

  /// Throws std::invalid_argument on `devices` outside [0, kMaxDevices] or
  /// `max_queue_len < 1` — a device count past kMaxDevices would let every
  /// scheduler scan read past the load/history arrays.
  void initialize(int devices, int max_queue_len);
};

static_assert(std::atomic<std::int32_t>::is_always_lock_free,
              "scheduler shm requires lock-free 32-bit atomics");
static_assert(std::atomic<std::int64_t>::is_always_lock_free,
              "scheduler shm requires lock-free 64-bit atomics");

/// RAII owner of a SchedulerShm segment.
class ShmRegion {
 public:
  /// Heap-backed segment shared between ranks-as-threads.
  static ShmRegion create_inprocess(int devices, int max_queue_len);

  /// POSIX shared-memory segment (`shm_open`), visible to other processes
  /// under `name` (e.g. "/hspec_sched"). Unlinked on destruction when owned.
  static ShmRegion create_posix(const std::string& name, int devices,
                                int max_queue_len);

  /// Attach to an existing POSIX segment created by another process.
  static ShmRegion attach_posix(const std::string& name);

  ShmRegion(ShmRegion&&) noexcept;
  ShmRegion& operator=(ShmRegion&&) noexcept;
  ShmRegion(const ShmRegion&) = delete;
  ShmRegion& operator=(const ShmRegion&) = delete;
  ~ShmRegion();

  SchedulerShm& view() noexcept { return *shm_; }
  const SchedulerShm& view() const noexcept { return *shm_; }

 private:
  ShmRegion() = default;

  SchedulerShm* shm_ = nullptr;
  std::unique_ptr<SchedulerShm> heap_;  // in-process backend storage
  std::string posix_name_;              // non-empty => mmap backend
  bool posix_owner_ = false;
};

}  // namespace hspec::core
