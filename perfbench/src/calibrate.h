#pragma once
// In-run host calibration, recorded next to the results as context (never
// a gate): how fast this host retires FMAs and streams memory while the
// benchmark runs.

#include <cstddef>

namespace perfbench {

struct HostCalibration {
  double fma_gflops = 0.0;  ///< eight independent FMA chains, 2 flop/FMA
  double copy_gbps = 0.0;   ///< bytes read + written per second by memcpy
  std::size_t llc_bytes = 0;    ///< last-level cache size used for sizing
  std::size_t array_bytes = 0;  ///< size of each of the two copy arrays
};

/// FMA loop as in bench/micro_kernel_roofline, and a copy between two
/// arrays of 2x the last-level cache each, so that together they span at
/// least 4x the cache and every pass streams from memory. Medians of
/// several repeats.
HostCalibration calibrate_host();

}  // namespace perfbench
