#include "calibrate.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double fma_gflops_once() {
  constexpr std::size_t kIters = 4'000'000;
  double a0 = 1.0, a1 = 1.1, a2 = 1.2, a3 = 1.3;
  double a4 = 1.4, a5 = 1.5, a6 = 1.6, a7 = 1.7;
  const double m = 0.9999999;
  const double c = 1e-9;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kIters; ++i) {
    a0 = std::fma(a0, m, c);
    a1 = std::fma(a1, m, c);
    a2 = std::fma(a2, m, c);
    a3 = std::fma(a3, m, c);
    a4 = std::fma(a4, m, c);
    a5 = std::fma(a5, m, c);
    a6 = std::fma(a6, m, c);
    a7 = std::fma(a7, m, c);
  }
  const double dt = seconds_since(t0);
  const double sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
  if (sink == 42.0) std::fprintf(stderr, "unlikely\n");
  return static_cast<double>(kIters) * 8.0 * 2.0 / dt / 1e9;
}

std::size_t last_level_cache_bytes() {
  for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                   _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{32} << 20;  // unknown: assume 32 MiB
}

}  // namespace

HostCalibration calibrate_host() {
  HostCalibration cal;
  std::vector<double> fma;
  for (int r = 0; r < 5; ++r) fma.push_back(fma_gflops_once());
  cal.fma_gflops = median(fma);

  cal.llc_bytes = last_level_cache_bytes();
  cal.array_bytes = 2 * cal.llc_bytes;
  auto src = std::make_unique<char[]>(cal.array_bytes);
  auto dst = std::make_unique<char[]>(cal.array_bytes);
  // First touch outside the timing, so page faults are not measured.
  std::memset(src.get(), 1, cal.array_bytes);
  std::memset(dst.get(), 0, cal.array_bytes);
  std::vector<double> gbps;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::memcpy(dst.get(), src.get(), cal.array_bytes);
    const double dt = seconds_since(t0);
    gbps.push_back(2.0 * static_cast<double>(cal.array_bytes) / dt / 1e9);
    src.swap(dst);
  }
  if (dst[cal.array_bytes / 2] != 1)
    std::fprintf(stderr, "calibrate_host: copy check failed\n");
  cal.copy_gbps = median(gbps);
  return cal;
}

}  // namespace perfbench
