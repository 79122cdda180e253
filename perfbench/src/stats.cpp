#include "stats.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

namespace {

std::size_t nearest_rank(double q, std::size_t n) {
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

}  // namespace

std::size_t samples_needed(double q) {
  if (!(q > 0.0 && q < 1.0))
    throw std::invalid_argument("percentile: q must lie in (0, 1)");
  std::size_t n = kMinBeyond + 1;
  while (n - nearest_rank(q, n) < kMinBeyond) ++n;
  return n;
}

double percentile(std::vector<double> samples, double q) {
  const std::size_t need = samples_needed(q);
  const std::size_t n = samples.size();
  if (n < need)
    throw TooFewSamples("percentile " + std::to_string(q) + " needs " +
                        std::to_string(need) + " samples, got " +
                        std::to_string(n));
  const std::size_t k = nearest_rank(q, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k - 1),
                   samples.end());
  return samples[k - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
