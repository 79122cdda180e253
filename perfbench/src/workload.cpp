#include "workload.h"

#include <cmath>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::below: empty range");
  return static_cast<std::size_t>(next() % n);
}

double Rng::log_uniform(double lo, double hi) {
  return lo * std::exp(uniform() * std::log(hi / lo));
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (0x51ed2701f3a5c9b1ULL * (stream + 1)));
  return r.next();
}

hspec::apec::GridPoint PointSource::next() {
  for (;;) {
    u_ += 0.6180339887498949;  // 1 / golden ratio
    u_ -= std::floor(u_);
    hspec::apec::GridPoint p;
    p.kT_keV = 0.1 * std::exp(u_ * std::log(100.0));
    p.ne_cm3 = rng_.log_uniform(0.1, 10.0);
    p.time_s = 0.0;
    // 1e-6 in log space is ~1e-6 relative: a thousand cache lattice
    // steps apart, so two accepted points never share a cache key.
    const auto key = std::make_pair(std::llround(std::log(p.kT_keV) * 1e6),
                                    std::llround(std::log(p.ne_cm3) * 1e6));
    if (!seen_.insert(key).second) continue;
    p.index = issued_++;
    return p;
  }
}

std::vector<hspec::apec::GridPoint> PointSource::take(std::size_t n) {
  std::vector<hspec::apec::GridPoint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(next());
  return out;
}

std::size_t MixPlan::fresh_points() const {
  std::size_t n = 0;
  for (const MixRequest& r : requests) n += r.fresh[0] + r.fresh[1];
  return n;
}

double MixPlan::designed_hit_ratio() const {
  return 1.0 - static_cast<double>(fresh_points()) /
                   static_cast<double>(total_points());
}

MixPlan make_mix_plan(std::uint64_t seed, std::size_t requests,
                      const std::vector<hspec::apec::GridPoint>& pool,
                      PointSource& fresh) {
  if (requests == 0 || requests % 10 != 0)
    throw std::invalid_argument("make_mix_plan: requests must be 10k, k > 0");
  if (pool.empty()) throw std::invalid_argument("make_mix_plan: empty pool");
  Rng rng(seed);
  MixPlan plan;
  plan.requests.resize(requests);
  for (MixRequest& r : plan.requests)
    for (std::size_t k = 0; k < 2; ++k) {
      r.pool_index[k] = rng.below(pool.size());
      r.points[k] = pool[r.pool_index[k]];
    }
  // Exactly 5% of the 2 * requests points are fresh: one seeded request in
  // every block of 10 carries one, in a seeded slot.
  for (std::size_t block = 0; block < requests; block += 10) {
    MixRequest& r = plan.requests[block + rng.below(10)];
    const std::size_t slot = rng.below(2);
    r.points[slot] = fresh.next();
    r.fresh[slot] = true;
  }
  return plan;
}

}  // namespace perfbench
