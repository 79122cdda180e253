// Self-tests of the benchmark's own machinery: the percentile helper, the
// seeded generator, open-loop latency accounting and the span self-time
// arithmetic. perfbench/run.py runs this before every measurement and
// refuses to measure when it fails. Exit code 0 when every check passes.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

template <class F>
bool refuses(F&& f) {
  try {
    f();
  } catch (const perfbench::TooFewSamples&) {
    return true;
  }
  return false;
}

void test_percentile() {
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  check(refuses([&] { perfbench::percentile(v, 0.99); }),
        "p99 of 999 samples is refused (9 beyond it)");
  v.push_back(1000.0);
  check(perfbench::percentile(v, 0.99) == 990.0,
        "p99 of 1..1000 is 990, with 10 samples beyond it");
  const std::vector<double> ninety(std::vector<double>(99, 1.0));
  check(refuses([&] { perfbench::percentile(ninety, 0.90); }),
        "p90 of 99 samples is refused");
  check(perfbench::samples_needed(0.90) == 100 &&
            perfbench::samples_needed(0.50) == 20 &&
            perfbench::samples_needed(0.99) == 1000,
        "samples needed: p50 20, p90 100, p99 1000");
  std::vector<double> shuffled{5, 1, 4, 2, 3};
  check(perfbench::median(shuffled) == 3.0, "median of an odd sample");
}

void test_generator() {
  perfbench::PointSource a(42), b(42), c(43);
  const auto pa = a.take(500), pb = b.take(500), pc = c.take(500);
  bool same = true, differs = false, valid = true;
  std::set<std::pair<double, double>> distinct;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    same = same && pa[i].kT_keV == pb[i].kT_keV && pa[i].ne_cm3 == pb[i].ne_cm3;
    differs = differs || pa[i].kT_keV != pc[i].kT_keV;
    valid = valid && std::isfinite(pa[i].kT_keV) && pa[i].kT_keV >= 0.1 &&
            pa[i].kT_keV < 10.0 && pa[i].ne_cm3 > 0.0;
    distinct.emplace(pa[i].kT_keV, pa[i].ne_cm3);
  }
  check(same, "the same seed yields the same points");
  check(differs, "another seed yields other points");
  check(valid, "every point has finite kT in [0.1, 10) keV and ne > 0");
  check(distinct.size() == pa.size(), "points never repeat");
  std::vector<int> decile(10, 0);
  for (std::size_t i = 0; i < 200; ++i)
    ++decile[static_cast<std::size_t>(std::log(pa[i].kT_keV / 0.1) /
                                      std::log(100.0) * 10.0)];
  bool even = true;
  for (int c : decile) even = even && c >= 18 && c <= 22;
  check(even, "200 consecutive points spread evenly over log kT");

  perfbench::PointSource pool_src(7);
  const auto pool = pool_src.take(64);
  for (std::size_t n : {10u, 1000u, 2010u}) {
    perfbench::PointSource f1(9), f2(9);
    const perfbench::MixPlan p1 = perfbench::make_mix_plan(11, n, pool, f1);
    const perfbench::MixPlan p2 = perfbench::make_mix_plan(11, n, pool, f2);
    bool deterministic = true, one_per_block = true;
    std::size_t fresh = 0, block_fresh = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r1 = p1.requests[i];
      const auto& r2 = p2.requests[i];
      for (int k = 0; k < 2; ++k)
        deterministic = deterministic &&
                        r1.points[k].kT_keV == r2.points[k].kT_keV &&
                        r1.fresh[k] == r2.fresh[k];
      fresh += r1.fresh[0] + r1.fresh[1];
      block_fresh += r1.fresh[0] + r1.fresh[1];
      if (i % 10 == 9) {
        one_per_block = one_per_block && block_fresh == 1;
        block_fresh = 0;
      }
    }
    check(deterministic, "mix plan of " + std::to_string(n) +
                             " requests is deterministic");
    check(fresh * 20 == 2 * n && p1.fresh_points() == fresh &&
              p1.designed_hit_ratio() == 1.0 - 0.05,
          "mix plan of " + std::to_string(n) +
              " requests has exactly 5% fresh points");
    check(one_per_block, "each block of 10 requests carries one fresh point");
  }
  bool refused = false;
  try {
    perfbench::PointSource f(1);
    perfbench::make_mix_plan(1, 15, pool, f);
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  check(refused, "a request count with no exact 5% share is refused");
}

void test_open_loop() {
  // The first submit stalls 30 ms; requests 1..9 were due every 1 ms. Their
  // latency must include the stall (counted from due time), and their
  // lateness must show the generator ran late.
  using namespace std::chrono_literals;
  const auto timings = perfbench::run_open_loop(
      10, 1000.0,
      [](std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(30ms);
        return i;
      },
      [](std::size_t) { return true; },
      [](std::size_t, std::size_t&) { return true; });
  bool from_due = true, late = true, ordered = true;
  for (std::size_t i = 1; i < timings.size(); ++i) {
    const perfbench::RequestTiming& t = timings[i];
    from_due = from_due && t.latency_s() >= 0.030 - t.due_s - 1e-4;
    late = late && t.lateness_s() >= 0.030 - t.due_s - 1e-4;
    ordered = ordered && std::fabs(t.due_s - 0.001 * static_cast<double>(i)) <
                             1e-6;
  }
  check(ordered, "request i is due at i / rate");
  check(from_due, "latency is counted from the due time, stall included");
  check(late, "generator lateness is recorded");

  // Replies that arrive 5 ms after their send are timed when they arrive,
  // not when they were sent.
  const auto slow = perfbench::run_open_loop(
      5, 1000.0, [](std::size_t) { return perfbench::Clock::now() + 5ms; },
      [](perfbench::Clock::time_point ready_at) {
        return perfbench::Clock::now() >= ready_at;
      },
      [](std::size_t, perfbench::Clock::time_point&) { return true; });
  bool timed_on_arrival = true;
  for (const perfbench::RequestTiming& t : slow)
    timed_on_arrival = timed_on_arrival && t.ok && t.done_s - t.sent_s >= 0.005;
  check(timed_on_arrival, "a reply is timed when it arrives");

  const auto failing = perfbench::run_open_loop(
      20, 2000.0,
      [](std::size_t i) {
        if (i == 3) throw std::runtime_error("refused");
        return i;
      },
      [](std::size_t) { return true; },
      [](std::size_t i, std::size_t&) { return i != 5; });
  check(!failing[3].ok && !failing[5].ok && failing[4].ok,
        "refused and incorrect requests are marked failed");
}

void test_self_time() {
  std::vector<perfbench::Span> spans(4);
  spans[0] = {"root", 0, 100, 1, 0, 0, 1};
  spans[1] = {"a", 10, 40, 2, 1, 0, 1};
  spans[2] = {"b", 30, 60, 3, 1, 0, 1};   // overlaps a: union is 10..60
  spans[3] = {"c", 90, 120, 4, 1, 0, 1};  // clipped to the parent: 90..100
  const auto self = perfbench::self_times_ns(spans);
  check(self[0] == 100 - 50 - 10, "self time subtracts the children's union");
  check(self[1] == 30 && self[3] == 30, "leaf spans keep their duration");
}

}  // namespace

int main() {
  std::printf("perfbench self-test\n");
  test_percentile();
  test_generator();
  test_open_loop();
  test_self_time();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
