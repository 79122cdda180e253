#pragma once
// Sample statistics for the benchmark's reported timings.
//
// A percentile is only reported when at least kMinBeyond samples lie beyond
// it: with fewer, the "p99" of a run is just its largest few samples and
// repeats poorly. percentile() refuses instead of guessing.

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Thrown when a percentile is asked of too few samples.
class TooFewSamples : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Samples needed so that percentile(q) has kMinBeyond samples beyond it.
std::size_t samples_needed(double q);

/// Nearest-rank percentile (q in (0, 1)): the k-th smallest sample with
/// k = ceil(q * n). Throws TooFewSamples when fewer than kMinBeyond samples
/// lie beyond rank k, and std::invalid_argument for q outside (0, 1).
double percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample (mean of the two middle values when even).
/// Used for repeated measurements of one quantity, not for latency tails.
double median(std::vector<double> samples);

}  // namespace perfbench
