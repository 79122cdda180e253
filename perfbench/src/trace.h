#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only around the benchmark's own calls into each layer
// (the library carries no instrumentation). Each span has a name, wall
// start/end, the recording thread, its parent span and the request it
// belongs to. Spans stay in memory until the run ends; write_chrome_json()
// then emits Chrome trace-event JSON that Perfetto and chrome://tracing
// open offline.
//
// A layer's self time is its span's duration minus the part of that
// interval covered by its child spans.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;
  std::uint64_t request = 0;  ///< spans of one request share this
  int tid = 0;
};

class Tracer {
 public:
  Tracer();

  /// Open a span; returns its id. `name` must outlive the tracer (string
  /// literals only).
  std::uint64_t begin(const char* name, std::uint64_t parent = 0,
                      std::uint64_t request = 0);
  void end(std::uint64_t id);

  /// A copy of every closed span.
  std::vector<Span> spans() const;

  /// Per span name: summed self time in seconds and span count.
  struct LayerTotals {
    double self_s = 0.0;
    double total_s = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, LayerTotals> totals() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  /// `metadata` entries become string fields of "otherData". Returns false
  /// if the file cannot be written.
  bool write_chrome_json(
      const std::string& path,
      const std::map<std::string, std::string>& metadata) const;

 private:
  std::int64_t now_ns() const;
  int thread_index();

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                 // guarded by mu_
  std::map<std::uint64_t, std::size_t> open_;  // id -> index, guarded by mu_
  std::map<std::size_t, int> tids_;         // thread hash -> index, mu_
};

/// Self time of every span given all spans: duration minus the union of
/// its children's intervals (clipped to the parent). Indexed like `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// RAII span. A null tracer records nothing and costs one branch, so the
/// same code path serves the traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
