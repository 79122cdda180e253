#pragma once
// Seeded input generation for the benchmark workloads.
//
// The program under test only ever sees the generated grid points; the
// seed is a benchmark argument, and the same seed yields the same points,
// request mix and fresh/pool placement on every machine (SplitMix64, no
// library distributions).

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "apec/parameter_space.h"

namespace perfbench {

/// SplitMix64: tiny, fast and fully specified, so inputs never depend on a
/// standard library's distribution implementation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);
  /// Log-uniform in [lo, hi).
  double log_uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed for one part of a run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Draws grid points over kT 0.1-10 keV and ne 0.1-10 cm^-3 (finite,
/// positive), log-uniformly, never repeating one: every point differs from
/// every earlier draw of this generator by far more than the grid cache's
/// key resolution, so each is a cold point.
///
/// log kT, which sets a point's cost (how many ions are populated), follows
/// a golden-ratio sequence from a seeded start, so any run of consecutive
/// draws covers the range evenly and a run's cost mix does not hinge on the
/// luck of its draw; ne is drawn independently.
class PointSource {
 public:
  explicit PointSource(std::uint64_t seed) : rng_(seed), u_(rng_.uniform()) {}
  hspec::apec::GridPoint next();
  std::vector<hspec::apec::GridPoint> take(std::size_t n);

 private:
  Rng rng_;
  double u_;  ///< position of log kT in [0, 1)
  std::size_t issued_ = 0;
  std::set<std::pair<std::int64_t, std::int64_t>> seen_;
};

/// One service request: two grid points, each either from the warm pool or
/// a fresh cold point.
struct MixRequest {
  std::array<hspec::apec::GridPoint, 2> points;
  std::array<bool, 2> fresh{};
  std::array<std::size_t, 2> pool_index{};  ///< meaningful where !fresh
};

/// A request sequence with an exactly designed hit ratio: of the
/// 2 * requests points, exactly fresh_points() are fresh and the rest are
/// drawn uniformly from the pool. One request in every block of 10 carries
/// one fresh point (request and slot seeded), so misses arrive at a steady
/// average rate and how often two land back to back does not hinge on the
/// draw. `requests` must be a multiple of 10.
struct MixPlan {
  std::vector<MixRequest> requests;
  std::size_t fresh_points() const;
  std::size_t total_points() const { return 2 * requests.size(); }
  /// Hit ratio the plan is designed for: pool points / all points.
  double designed_hit_ratio() const;
};

MixPlan make_mix_plan(std::uint64_t seed, std::size_t requests,
                      const std::vector<hspec::apec::GridPoint>& pool,
                      PointSource& fresh);

}  // namespace perfbench
