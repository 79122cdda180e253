// perfbench: the repo benchmark driver (see perfbench/README.md).
//
//   perfbench --workload grid_sweep|point_latency|service_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// runs the same workload on the same seed with spans around every layer
// call the benchmark makes, replays the workload's points layer by layer,
// prints the per-layer metrics and writes a Chrome trace-event JSON file
// into --out-dir. Either way every spectrum is checked, and the last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when a result was printed, 1 on an error (no result), 2 on a
// usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.h"
#include "core/hybrid.h"
#include "core/hybrid_executor.h"
#include "layers.h"
#include "open_loop.h"
#include "service/service.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace {

namespace hs = hspec;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// ---- Workload parameters ---------------------------------------------------

// Set-ups per run, median reported; the cheap 1-point set-up repeats most.
constexpr int kSweepSetupReps = 7;       // each with a 32-point warm-up batch
constexpr int kPointSetupReps = 15;      // each with a 1-point warm-up batch
constexpr int kServiceSetupReps = 4;     // each includes the pool warm-up
constexpr double kBlockS = 1.0;          // points_per_s: median of ~1 s blocks
constexpr std::size_t kSweepBatch = 32;  // grid_sweep points per batch
constexpr int kClosedRanks = 4;
constexpr int kServiceRanks = 3;
constexpr std::size_t kPoolPoints = 64;
constexpr double kRefRate = 200.0;        // service_mix reference rate [1/s]
constexpr std::size_t kReplayPoints = 32;  // points replayed layer by layer
constexpr int kReplayRounds = 3;
constexpr double kHardCapS = 120.0;        // measuring never exceeds this

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t round_up10(double n) {
  return static_cast<std::size_t>(std::ceil(n / 10.0)) * 10;
}

// ---- Arguments and result --------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         a.seconds > 0.0 &&
         (a.workload == "grid_sweep" || a.workload == "point_latency" ||
          a.workload == "service_mix");
}

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  void gate(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::cout << "perfbench: gate failed: " << what << "\n";
  }

  void print() const {
    std::string out = "{\"correct\": ";
    out += correct && failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      if (std::isfinite(m.value))
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      else
        std::snprintf(buf, sizeof(buf), "null");
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
  }
};

// ---- Spectrum checks -------------------------------------------------------

bool all_finite(const std::vector<double>& bins) {
  return std::all_of(bins.begin(), bins.end(),
                     [](double v) { return std::isfinite(v); });
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Compare sampled spectra with a direct HybridDriver run of the same
/// points, bitwise; returns the number of mismatching spectra.
std::size_t driver_mismatches(const perfbench::Stack& stack, int ranks,
                              const std::vector<hs::apec::GridPoint>& points,
                              const std::vector<std::vector<double>>& got) {
  if (points.empty()) return 0;
  hs::core::HybridDriver driver(stack.calc, perfbench::hybrid_config(ranks));
  const hs::core::HybridResult ref = driver.run(points);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (!same_bits(ref.spectra[i].values(), got[i])) ++bad;
  return bad;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ms(double s) { return s * 1e3; }

/// Points per second of a closed loop: the median over consecutive blocks
/// of batches that each take at least kBlockS, so that a burst of host
/// contention in part of a run moves it less than a whole-run mean would.
/// A trailing partial block is left out.
double block_points_per_s(const std::vector<double>& batch_s,
                          std::size_t batch_points) {
  std::vector<double> rates;
  double t = 0.0;
  std::size_t points = 0;
  for (double s : batch_s) {
    t += s;
    points += batch_points;
    if (t < kBlockS) continue;
    rates.push_back(static_cast<double>(points) / t);
    t = 0.0;
    points = 0;
  }
  if (rates.empty()) rates.push_back(static_cast<double>(points) / t);
  return perfbench::median(rates);
}

// ---- Per-layer accounting --------------------------------------------------

/// Executor-side counters summed over batches, from HybridResult.
struct ExecCounters {
  std::uint64_t points = 0;
  std::uint64_t batches = 0;
  std::uint64_t tasks = 0;
  std::uint64_t cpu_fallbacks = 0;
  std::uint64_t steals = 0;
  std::uint64_t kernels = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t resident_hits = 0;
  std::uint64_t resident_misses = 0;
  double kernel_s = 0.0;
  double transfer_s = 0.0;
  double makespan_s = 0.0;
  std::vector<double> batch_s;
  hs::core::SchedulingStats sched;

  void add(const hs::core::HybridResult& r, std::size_t n_points,
           double wall_s) {
    points += n_points;
    ++batches;
    tasks += r.tasks_total;
    cpu_fallbacks += static_cast<std::uint64_t>(r.scheduling.cpu_fallbacks);
    steals += r.pipeline.steals;
    for (const hs::vgpu::DeviceStats& d : r.device_stats) {
      kernels += d.kernels_launched;
      h2d_bytes += d.bytes_h2d;
      d2h_bytes += d.bytes_d2h;
      kernel_s += d.kernel_time_s;
      transfer_s += d.transfer_time_s;
    }
    resident_hits += r.pipeline.cache_hits;
    resident_misses += r.pipeline.cache_misses;
    makespan_s += r.virtual_makespan_s;
    batch_s.push_back(wall_s);
    for (int b = 0; b < hs::core::kSchedLatencyBuckets; ++b)
      sched.hist[b] += r.sched.hist[b];
    sched.decisions += r.sched.decisions;
    sched.latency_ns_total += r.sched.latency_ns_total;
  }

  void report(Report& rep) const {
    const double p = static_cast<double>(points);
    rep.add("vgpu.kernels_per_point", "count", static_cast<double>(kernels) / p);
    rep.add("vgpu.h2d_bytes_per_point", "B", static_cast<double>(h2d_bytes) / p);
    rep.add("vgpu.d2h_bytes_per_point", "B", static_cast<double>(d2h_bytes) / p);
    const std::uint64_t leases = resident_hits + resident_misses;
    rep.add("vgpu.resident_hit_ratio", "ratio",
            leases > 0 ? static_cast<double>(resident_hits) /
                             static_cast<double>(leases)
                       : 0.0);
    rep.add("vgpu.kernel_virtual_ms_per_point", "ms", ms(kernel_s) / p);
    rep.add("vgpu.transfer_virtual_ms_per_point", "ms", ms(transfer_s) / p);
    rep.add("vgpu.virtual_makespan_ms_per_point", "ms", ms(makespan_s) / p);
    rep.add("core.run_batch_ms", "ms", ms(perfbench::median(batch_s)));
    rep.add("core.tasks_per_point", "count", static_cast<double>(tasks) / p);
    rep.add("core.steals_per_batch", "count",
            static_cast<double>(steals) / static_cast<double>(batches));
    rep.add("core.cpu_fallback_ratio", "ratio",
            static_cast<double>(cpu_fallbacks) / static_cast<double>(tasks));
    rep.add("core.sched_decision_p50_ns", "ns", sched.median_ns());
  }
};

/// Service-side samples: per request, from the caller's side and from
/// ServiceStats, plus the service's own counters over the measured phase.
struct ServiceCounters {
  std::vector<double> submit_s;
  std::vector<double> queue_wait_s;
  std::vector<double> hit_req_s;   // latency of requests served from cache
  std::vector<double> miss_req_s;  // latency of requests with a miss
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double designed_hit_ratio = 0.0;
  std::uint64_t designed_misses = 0;
  hs::service::SpectralService::Telemetry tel_before, tel_after;
  hs::service::GridCacheStats cache_before, cache_after;

  void snapshot_before(const hs::service::SpectralService& svc) {
    tel_before = svc.telemetry();
    cache_before = svc.cache_stats();
  }
  void snapshot_after(const hs::service::SpectralService& svc) {
    tel_after = svc.telemetry();
    cache_after = svc.cache_stats();
  }

  void record(const hs::service::ServiceStats& st, double latency_s) {
    queue_wait_s.push_back(st.queue_wait_s);
    hits += st.cache_hits;
    misses += st.cache_misses;
    (st.cache_misses > 0 ? miss_req_s : hit_req_s).push_back(latency_s);
  }

  double realized_hit_ratio() const {
    return static_cast<double>(hits) / static_cast<double>(hits + misses);
  }

  void gate(Report& rep) const {
    rep.gate(misses == designed_misses,
             "realized hit ratio " + std::to_string(realized_hit_ratio()) +
                 " differs from designed " +
                 std::to_string(designed_hit_ratio));
  }

  void report(Report& rep) const {
    const double batches =
        static_cast<double>(tel_after.batches - tel_before.batches);
    rep.add("service.submit_us", "us", perfbench::median(submit_s) * 1e6);
    rep.add("service.queue_wait_p99_ms", "ms",
            ms(perfbench::percentile(queue_wait_s, 0.99)));
    rep.add("service.hit_req_p99_ms", "ms",
            ms(perfbench::percentile(hit_req_s, 0.99)));
    rep.add("service.miss_req_p50_ms", "ms",
            ms(perfbench::percentile(miss_req_s, 0.50)));
    rep.add("service.batch_points_mean", "count",
            static_cast<double>(misses) / batches);
    rep.add("service.coalesced_ratio", "ratio",
            static_cast<double>(tel_after.coalesced_batches -
                                tel_before.coalesced_batches) /
                batches);
    rep.add("service.hit_ratio", "ratio", realized_hit_ratio());
    rep.add("service.cache_inserts", "count",
            static_cast<double>(cache_after.inserts - cache_before.inserts));
    rep.add("service.cache_evictions", "count",
            static_cast<double>(cache_after.evictions -
                                cache_before.evictions));
  }
};

hs::service::ServiceConfig service_config(int ranks) {
  hs::service::ServiceConfig scfg;
  scfg.hybrid = perfbench::hybrid_config(ranks);
  scfg.cache.capacity = 1 << 15;  // pool and every fresh point of a run fit
  scfg.max_pending_points = 1 << 14;
  scfg.admission = hs::service::ServiceConfig::Admission::block;
  return scfg;
}

/// The layer probes every traced run ends with: single-threaded replays of
/// `points` (untraced and traced, alternating), direct rrc/quad calls, the
/// minimpi probe and the host calibration. `reference` holds the spectra the
/// workload's own path returned for the same points; the replay must match
/// them bitwise or its layer numbers do not count.
void probe_layers(const perfbench::Stack& stack,
                  const std::vector<hs::apec::GridPoint>& points,
                  const std::vector<std::vector<double>>& reference, int ranks,
                  Tracer& tracer, Report& rep) {
  // Untraced and traced replays alternate, kReplayRounds each, so that a
  // drift in host speed hits both alike; each round is checked bitwise.
  static constexpr const char* kReplayLayers[] = {
      "apec.populations", "core.make_tasks", "core.sched_decision",
      "vgpu.execute_task", "core.accumulate"};
  auto layer_self_s = [&] {
    const auto totals = tracer.totals();
    double sum = 0.0;
    for (const char* layer : kReplayLayers) {
      const auto it = totals.find(layer);
      if (it != totals.end()) sum += it->second.self_s;
    }
    return sum;
  };
  std::vector<double> plain_s, traced_s, unattributed;
  perfbench::replay_points(stack, points, nullptr);  // warm-up, not counted
  double self_before = layer_self_s();
  for (int round = 0; round < kReplayRounds; ++round) {
    // Which of the pair runs first alternates, so order effects cancel.
    Tracer* const first = round % 2 == 0 ? nullptr : &tracer;
    for (Tracer* t : {first, first == nullptr ? &tracer : nullptr}) {
      const perfbench::ReplayResult r = perfbench::replay_points(stack, points, t);
      std::size_t bad = 0;
      for (std::size_t i = 0; i < points.size(); ++i)
        if (!same_bits(r.spectra[i].values(), reference[i])) ++bad;
      rep.failed += bad;
      rep.attempted += points.size();
      rep.gate(bad == 0, std::to_string(bad) +
                             " replayed spectra differ from the workload's");
      (t == nullptr ? plain_s : traced_s).push_back(r.wall_s);
    }
    // Layer self times of this traced round against its untraced twin.
    const double self_after = layer_self_s();
    unattributed.push_back((plain_s.back() - (self_after - self_before)) /
                           plain_s.back());
    self_before = self_after;
  }
  const double plain_wall = perfbench::median(plain_s);

  const perfbench::DirectResult direct =
      perfbench::direct_rrc_quad(stack, points, &tracer);
  const double minimpi_us = perfbench::minimpi_run_us(ranks, 200, &tracer);
  const perfbench::HostCalibration cal = perfbench::calibrate_host();

  const auto totals = tracer.totals();
  auto mean_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.count) *
                     1e6;
  };
  const double n = static_cast<double>(points.size());
  rep.add("rrc.ns_per_eval", "ns",
          direct.rrc_s / static_cast<double>(direct.evals) * 1e9);
  rep.add("rrc.evals_per_point", "count", static_cast<double>(direct.evals) / n);
  rep.add("quad.rule_ns_per_bin", "ns",
          direct.quad_s / static_cast<double>(direct.live_bins) * 1e9);
  rep.add("vgpu.task_wall_us", "us", mean_us("vgpu.execute_task"));
  rep.add("minimpi.run_us", "us", minimpi_us);
  rep.add("apec.populations_us", "us", mean_us("apec.populations"));
  rep.add("core.make_tasks_us", "us", mean_us("core.make_tasks"));

  rep.add("trace.unattributed_share", "ratio", perfbench::median(unattributed));
  rep.add("trace.overhead_share", "ratio",
          (perfbench::median(traced_s) - plain_wall) / plain_wall);
  rep.add("host.fma_gflops", "GFLOP/s", cal.fma_gflops);
  rep.add("host.copy_gbps", "GB/s", cal.copy_gbps);
  std::cout << "perfbench: host calibration: fma " << cal.fma_gflops
            << " GFLOP/s (8 chains x 4e6 FMAs), copy " << cal.copy_gbps
            << " GB/s over 2 arrays of " << (cal.array_bytes >> 20)
            << " MiB each (last-level cache " << (cal.llc_bytes >> 20)
            << " MiB)\n";
}

void write_trace(const Args& a, const Tracer& tracer, Report& rep) {
  const std::string path = a.out_dir + "/trace_" + a.workload + "_seed" +
                           std::to_string(a.seed) + ".json";
  const bool ok = tracer.write_chrome_json(
      path, {{"workload", a.workload}, {"seed", std::to_string(a.seed)}});
  rep.gate(ok, "cannot write " + path);
  if (ok) std::cout << "perfbench: trace written to " << path << "\n";
}

// ---- Closed-loop workloads: grid_sweep and point_latency -------------------

/// Run the workload's first requests through a SpectralService as a closed
/// loop: each request once (misses), then cached repeats (exact hits).
void service_replay(const perfbench::Stack& stack,
                    const std::vector<std::vector<hs::apec::GridPoint>>& reqs,
                    Tracer& tracer, Report& rep) {
  hs::service::SpectralService svc(stack.calc, service_config(kClosedRanks));
  ServiceCounters sc;
  sc.snapshot_before(svc);
  std::vector<std::vector<std::vector<double>>> first(reqs.size());
  const std::size_t hit_requests = perfbench::samples_needed(0.99);
  std::uint64_t designed_hits = 0, designed_points = 0;
  for (std::size_t i = 0; i < reqs.size() + hit_requests; ++i) {
    const std::size_t r = i % reqs.size();
    const Clock::time_point t0 = Clock::now();
    hs::service::SpectralService::Ticket ticket = [&] {
      ScopedSpan s(&tracer, "service.submit", 0, i + 1);
      return svc.submit(reqs[r]);
    }();
    sc.submit_s.push_back(seconds_since(t0));
    hs::service::ServiceReply reply;
    {
      ScopedSpan s(&tracer, "service.wait", 0, i + 1);
      reply = ticket.wait();
    }
    sc.record(reply.stats, seconds_since(t0));
    designed_points += reqs[r].size();
    if (i >= reqs.size()) designed_hits += reqs[r].size();
    for (std::size_t k = 0; k < reply.spectra.size(); ++k) {
      const std::vector<double>& bins = reply.spectra[k].values();
      if (i < reqs.size()) first[r].push_back(bins);
      const bool ok = all_finite(bins) && same_bits(bins, first[r][k]);
      if (!ok) ++rep.failed;
      ++rep.attempted;
    }
  }
  sc.snapshot_after(svc);
  sc.designed_misses = designed_points - designed_hits;
  sc.designed_hit_ratio = static_cast<double>(designed_hits) /
                          static_cast<double>(designed_points);
  sc.gate(rep);
  sc.report(rep);
}

Report run_closed_loop(const Args& a, std::size_t batch_points) {
  Report rep;
  std::unique_ptr<Tracer> tracer = a.trace ? std::make_unique<Tracer>() : nullptr;

  // Set-up, several times: database, calculator and long-lived executor,
  // then one warm-up batch, so that first-use costs (buffer pools, resident
  // bin edges, scratch arenas) count as set-up, not as a measured batch.
  // The warm-up points are the same for every seed, so that set-up time
  // does not depend on the workload's draw.
  const std::vector<hs::apec::GridPoint> warm_points =
      perfbench::PointSource(perfbench::sub_seed(0, 4)).take(batch_points);
  std::vector<double> setup_s;
  std::unique_ptr<perfbench::Stack> stack;
  std::unique_ptr<hs::core::HybridExecutor> exec;
  const int setup_reps = batch_points > 1 ? kSweepSetupReps : kPointSetupReps;
  for (int r = 0; r < setup_reps; ++r) {
    exec.reset();
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = std::make_unique<perfbench::Stack>();
    exec = std::make_unique<hs::core::HybridExecutor>(
        stack->calc, perfbench::hybrid_config(kClosedRanks));
    exec->run_batch(warm_points);
    setup_s.push_back(seconds_since(t0));
  }

  perfbench::PointSource source(perfbench::sub_seed(a.seed, 1));
  perfbench::Rng pick(perfbench::sub_seed(a.seed, 2));

  const std::size_t min_batches = std::max(
      perfbench::samples_needed(0.90),
      (perfbench::samples_needed(0.99) + batch_points - 1) / batch_points);
  // Closed loop: the next batch is issued when the previous one returns.
  ExecCounters ec;
  std::vector<double> point_latency_s;
  std::vector<hs::apec::GridPoint> sampled;
  std::vector<std::vector<double>> sampled_bins;
  std::vector<hs::apec::GridPoint> replay_points;
  std::vector<std::vector<double>> replay_bins;
  std::vector<std::vector<hs::apec::GridPoint>> first_batches;
  const Clock::time_point loop_start = Clock::now();
  while (true) {
    const double elapsed = seconds_since(loop_start);
    if ((ec.batches >= min_batches && elapsed >= a.seconds) ||
        elapsed >= kHardCapS)
      break;
    const std::vector<hs::apec::GridPoint> points = source.take(batch_points);
    const Clock::time_point t0 = Clock::now();
    hs::core::HybridResult result;
    {
      ScopedSpan s(tracer.get(), "core.run_batch", 0, ec.batches + 1);
      result = exec->run_batch(points);
    }
    const double wall = seconds_since(t0);
    ec.add(result, points.size(), wall);
    point_latency_s.insert(point_latency_s.end(), points.size(), wall);

    for (std::size_t i = 0; i < points.size(); ++i) {
      ++rep.attempted;
      if (!all_finite(result.spectra[i].values())) ++rep.failed;
    }
    // One sampled point per 32 for the direct-driver check.
    if (batch_points > 1 || ec.batches % 32 == 1) {
      const std::size_t i = pick.below(points.size());
      sampled.push_back(points[i]);
      sampled_bins.push_back(result.spectra[i].values());
    }
    for (std::size_t i = 0;
         i < points.size() && replay_points.size() < kReplayPoints; ++i) {
      replay_points.push_back(points[i]);
      replay_bins.push_back(result.spectra[i].values());
    }
    if (first_batches.size() < perfbench::samples_needed(0.5))
      first_batches.push_back(points);
  }

  const std::size_t bad =
      driver_mismatches(*stack, kClosedRanks, sampled, sampled_bins);
  rep.failed += bad;
  rep.gate(bad == 0, std::to_string(bad) + " of " +
                         std::to_string(sampled.size()) +
                         " sampled spectra differ from a direct run");

  double busy_s = 0.0;
  for (double s : ec.batch_s) busy_s += s;
  std::cout << "perfbench: " << a.workload << ": " << ec.batches
            << " batches of " << batch_points << " points in " << busy_s
            << " s of run_batch\n";
  if (!a.trace) {
    rep.add("setup_s", "s", perfbench::median(setup_s));
    rep.add("points_per_s", "1/s", block_points_per_s(ec.batch_s, batch_points));
    rep.add("batch_p50_ms", "ms", ms(perfbench::percentile(ec.batch_s, 0.50)));
    rep.add("batch_p90_ms", "ms", ms(perfbench::percentile(ec.batch_s, 0.90)));
    rep.add("req_p50_ms", "ms",
            ms(perfbench::percentile(point_latency_s, 0.50)));
    rep.add("req_p99_ms", "ms",
            ms(perfbench::percentile(point_latency_s, 0.99)));
    rep.add("peak_rss_mb", "MB", peak_rss_mb());
    return rep;
  }

  ec.report(rep);
  service_replay(*stack, first_batches, *tracer, rep);
  probe_layers(*stack, replay_points, replay_bins, kClosedRanks, *tracer, rep);
  rep.add("failed_ratio", "ratio",
          static_cast<double>(rep.failed) / static_cast<double>(rep.attempted));
  write_trace(a, *tracer, rep);
  return rep;
}

// ---- Open-loop workload: service_mix ----------------------------------------

struct ServiceMixRun {
  hs::service::SpectralService& svc;
  const std::vector<hs::apec::GridPoint>& pool;
  const std::vector<std::vector<double>>& pool_bins;
  perfbench::PointSource& fresh;
  Tracer* tracer;
  Report& rep;
  // Fresh points and the spectra the service returned for them.
  std::vector<hs::apec::GridPoint> fresh_points;
  std::vector<std::vector<double>> fresh_bins;

  struct Phase {
    std::vector<perfbench::RequestTiming> timings;
    ServiceCounters counters;
    std::vector<double> latency_s;  // failed requests count as infinite
  };

  /// One open-loop phase of `n` requests at `rate`, every reply checked.
  Phase run(std::uint64_t seed, std::size_t n, double rate) {
    const perfbench::MixPlan plan =
        perfbench::make_mix_plan(seed, n, pool, fresh);
    Phase ph;
    ph.counters.designed_hit_ratio = plan.designed_hit_ratio();
    ph.counters.designed_misses = plan.fresh_points();
    ph.counters.submit_s.resize(n);
    std::vector<hs::service::ServiceStats> stats(n);
    ph.counters.snapshot_before(svc);
    ph.timings = perfbench::run_open_loop(
        n, rate,
        [&](std::size_t i) {
          const perfbench::MixRequest& r = plan.requests[i];
          const Clock::time_point t0 = Clock::now();
          ScopedSpan s(tracer, "service.submit", 0, i + 1);
          hs::service::SpectralService::Ticket t =
              svc.submit({r.points[0], r.points[1]});
          ph.counters.submit_s[i] = seconds_since(t0);
          return t;
        },
        [](const hs::service::SpectralService::Ticket& t) { return t.done(); },
        [&](std::size_t i, hs::service::SpectralService::Ticket& t) {
          hs::service::ServiceReply reply;
          {
            ScopedSpan s(tracer, "service.wait", 0, i + 1);
            reply = t.wait();
          }
          stats[i] = reply.stats;
          const perfbench::MixRequest& r = plan.requests[i];
          bool ok = reply.spectra.size() == 2;
          for (std::size_t k = 0; ok && k < 2; ++k) {
            const std::vector<double>& bins = reply.spectra[k].values();
            if (r.fresh[k]) {
              ok = all_finite(bins);
              fresh_points.push_back(r.points[k]);
              fresh_bins.push_back(bins);
            } else {
              ok = same_bits(bins, pool_bins[r.pool_index[k]]);
            }
          }
          return ok;
        });
    ph.counters.snapshot_after(svc);
    for (std::size_t i = 0; i < n; ++i) {
      const perfbench::RequestTiming& t = ph.timings[i];
      ++rep.attempted;
      if (!t.ok) ++rep.failed;
      const double lat = t.ok ? t.latency_s() : INFINITY;
      ph.latency_s.push_back(lat);
      ph.counters.record(stats[i], lat);
    }
    return ph;
  }
};

void print_lateness(const ServiceMixRun::Phase& ph) {
  std::vector<double> late;
  for (const perfbench::RequestTiming& t : ph.timings)
    late.push_back(t.lateness_s());
  std::printf(
      "perfbench: service_mix %.0f req/s x %zu requests: generator lateness "
      "p50 %.3f ms, max %.3f ms\n",
      kRefRate, ph.timings.size(), ms(perfbench::median(late)),
      ms(*std::max_element(late.begin(), late.end())));
}

Report run_service_mix(const Args& a) {
  Report rep;
  std::unique_ptr<Tracer> tracer = a.trace ? std::make_unique<Tracer>() : nullptr;
  perfbench::PointSource source(perfbench::sub_seed(a.seed, 1));
  const std::vector<hs::apec::GridPoint> pool = source.take(kPoolPoints);

  // Set-up: database, calculator, service, and the pool warm-up.
  std::vector<double> setup_s;
  std::unique_ptr<perfbench::Stack> stack;
  std::unique_ptr<hs::service::SpectralService> svc;
  hs::service::ServiceReply warm;
  for (int r = 0; r < kServiceSetupReps; ++r) {
    svc.reset();
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = std::make_unique<perfbench::Stack>();
    svc = std::make_unique<hs::service::SpectralService>(
        stack->calc, service_config(kServiceRanks));
    warm = svc->submit(pool).wait();
    setup_s.push_back(seconds_since(t0));
  }
  std::vector<std::vector<double>> pool_bins;
  for (const hs::apec::Spectrum& s : warm.spectra)
    pool_bins.push_back(s.values());
  const std::size_t pool_bad =
      driver_mismatches(*stack, kServiceRanks, pool, pool_bins);
  rep.attempted += pool.size();
  rep.failed += pool_bad;
  rep.gate(pool_bad == 0, std::to_string(pool_bad) +
                              " pool spectra differ from a direct run");

  ServiceMixRun mix{*svc, pool, pool_bins, source, tracer.get(), rep, {}, {}};
  // The whole run at the reference rate, with at least
  // samples_needed(0.99) fully cached requests (90% of them).
  const std::size_t n_ref = round_up10(
      std::max(perfbench::samples_needed(0.99) / 0.9, a.seconds * kRefRate));
  const ServiceMixRun::Phase ref =
      mix.run(perfbench::sub_seed(a.seed, 3), n_ref, kRefRate);
  ref.counters.gate(rep);
  print_lateness(ref);

  // Sampled fresh spectra against a direct run, bitwise.
  const std::size_t n_check = std::min(kReplayPoints, mix.fresh_points.size());
  const std::vector<hs::apec::GridPoint> check_points(
      mix.fresh_points.begin(), mix.fresh_points.begin() + n_check);
  const std::vector<std::vector<double>> check_bins(
      mix.fresh_bins.begin(), mix.fresh_bins.begin() + n_check);

  if (!a.trace) {
    const std::size_t bad =
        driver_mismatches(*stack, kServiceRanks, check_points, check_bins);
    rep.failed += bad;
    rep.gate(bad == 0, std::to_string(bad) +
                           " fresh spectra differ from a direct run");

    std::vector<double> done;
    for (const perfbench::RequestTiming& t : ref.timings)
      done.push_back(t.done_s);
    const double span_s = *std::max_element(done.begin(), done.end());
    rep.add("setup_s", "s", perfbench::median(setup_s));
    rep.add("points_per_s", "1/s",
            static_cast<double>(2 * ref.timings.size()) / span_s);
    rep.add("batch_p50_ms", "ms",
            ms(perfbench::percentile(ref.counters.miss_req_s, 0.50)));
    rep.add("batch_p90_ms", "ms",
            ms(perfbench::percentile(ref.counters.miss_req_s, 0.90)));
    rep.add("req_p50_ms", "ms", ms(perfbench::percentile(ref.latency_s, 0.50)));
    rep.add("req_p99_ms", "ms", ms(perfbench::percentile(ref.latency_s, 0.99)));
    rep.add("peak_rss_mb", "MB", peak_rss_mb());
    return rep;
  }

  ref.counters.report(rep);
  // The executor and device layers sit behind the service, so replay the
  // fresh points through a HybridExecutor with the service's ranks, one
  // point per batch as the service mostly ran them at this rate.
  ExecCounters ec;
  {
    hs::core::HybridExecutor exec(stack->calc,
                                  perfbench::hybrid_config(kServiceRanks));
    for (std::size_t i = 0; i < check_points.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      hs::core::HybridResult result;
      {
        ScopedSpan s(tracer.get(), "core.run_batch", 0, i + 1);
        result = exec.run_batch({check_points[i]});
      }
      ec.add(result, 1, seconds_since(t0));
      ++rep.attempted;
      if (!same_bits(result.spectra[0].values(), check_bins[i])) ++rep.failed;
    }
  }
  ec.report(rep);
  probe_layers(*stack, check_points, check_bins, kServiceRanks, *tracer, rep);
  rep.add("failed_ratio", "ratio",
          static_cast<double>(rep.failed) / static_cast<double>(rep.attempted));
  write_trace(a, *tracer, rep);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload grid_sweep|point_latency|"
                 "service_mix --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n";
    return 2;
  }
  try {
    Report rep;
    if (args.workload == "grid_sweep")
      rep = run_closed_loop(args, kSweepBatch);
    else if (args.workload == "point_latency")
      rep = run_closed_loop(args, 1);
    else
      rep = run_service_mix(args);
    rep.print();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
