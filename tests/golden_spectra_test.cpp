// Golden spectra: the exact bytes of 16 spectra, pinned from one change to
// the next. Every other bitwise check compares two paths of one build, so a
// change applied to all of them alike would pass; this one compares against
// digests recorded in tests/data/golden_spectra.txt.
//
// The stack is the benchmark's (max_z 8, 2 levels per ion, 64 bins over
// 5-40 Angstrom, Simpson-64 kernels). Each point runs through a 1-rank
// HybridDriver at ion and at level granularity, and through the serial QAGS
// calculator; each spectrum's raw bytes are hashed with 64-bit FNV-1a.
//
// Populations, lines and grid edges call libm, and the compiler and build
// flags decide instruction selection, so the digests are keyed by compiler,
// glibc and build type. A key with no recorded set prints its digests in the
// file's format and skips; the test never falls back to a tolerance.

#include <gnu/libc-version.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apec/calculator.h"
#include "apec/energy_grid.h"
#include "atomic/database.h"
#include "core/hybrid.h"

namespace {

using namespace hspec;

std::uint64_t fnv1a(const apec::Spectrum& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(s.values().data());
  for (std::size_t i = 0; i < s.values().size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// "<compiler>-<version> glibc-<runtime version> <build type>[+sanitizer]".
std::string toolchain_key() {
  std::ostringstream key;
  key << HSPEC_GOLDEN_COMPILER << " glibc-" << gnu_get_libc_version() << ' '
      << HSPEC_GOLDEN_BUILD_TYPE;
  return key.str();
}

/// The recorded sets: key -> ("<path> <point>" -> digest).
using DigestSet = std::map<std::string, std::string>;

std::map<std::string, DigestSet> read_golden(const std::string& path) {
  std::map<std::string, DigestSet> sets;
  std::ifstream in(path);
  std::string line;
  DigestSet* current = nullptr;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("key ", 0) == 0) {
      current = &sets[line.substr(4)];
      continue;
    }
    std::istringstream fields(line);
    std::string path_name, point, digest;
    if (current != nullptr && fields >> path_name >> point >> digest)
      (*current)[path_name + ' ' + point] = digest;
  }
  return sets;
}

TEST(GoldenSpectra, DigestsMatchTheRecordedSet) {
  atomic::DatabaseConfig db_cfg;
  db_cfg.max_z = 8;
  db_cfg.levels = {2, true};
  const atomic::AtomicDatabase db(db_cfg);
  const apec::EnergyGrid grid = apec::EnergyGrid::wavelength(5.0, 40.0, 64);
  apec::CalcOptions kernel;
  kernel.integration.adaptive = false;
  kernel.integration.kernel = quad::KernelMethod::simpson;
  kernel.integration.kernel_param = 64;
  apec::CalcOptions adaptive = kernel;
  adaptive.integration.adaptive = true;
  const apec::SpectrumCalculator calc(db, grid, kernel);
  const apec::SpectrumCalculator qags(db, grid, adaptive);

  std::vector<apec::GridPoint> points;
  for (double kT : {0.1, 0.5, 2.0, 10.0})
    for (double ne : {0.1, 0.5, 2.0, 10.0})
      points.push_back({kT, ne, 0.0, points.size()});

  DigestSet got;
  auto record = [&](const char* path_name,
                    const std::vector<apec::Spectrum>& spectra) {
    ASSERT_EQ(spectra.size(), points.size());
    for (std::size_t p = 0; p < spectra.size(); ++p) {
      char name[32];
      std::snprintf(name, sizeof name, "%s %02zu", path_name, p);
      got[name] = hex(fnv1a(spectra[p]));
    }
  };
  for (core::TaskGranularity g :
       {core::TaskGranularity::ion, core::TaskGranularity::level}) {
    core::HybridConfig cfg;
    cfg.ranks = 1;
    cfg.devices = 1;
    cfg.granularity = g;
    record(g == core::TaskGranularity::ion ? "ion" : "level",
           core::HybridDriver(calc, cfg).run(points).spectra);
  }
  std::vector<apec::Spectrum> serial;
  for (const apec::GridPoint& pt : points) serial.push_back(qags.calculate(pt));
  record("qags", serial);

  const std::string key = toolchain_key();
  const auto sets = read_golden(HSPEC_GOLDEN_FILE);
  const auto it = sets.find(key);
  if (it == sets.end()) {
    std::cout << "key " << key << '\n';
    for (const auto& [name, digest] : got)
      std::cout << name << ' ' << digest << '\n';
    GTEST_SKIP() << "no golden digests recorded for '" << key
                 << "'; the set above can be added to " << HSPEC_GOLDEN_FILE;
  }
  EXPECT_EQ(it->second.size(), got.size()) << "recorded set for " << key;
  for (const auto& [name, digest] : got) {
    const auto want = it->second.find(name);
    ASSERT_NE(want, it->second.end()) << name << " is not recorded";
    EXPECT_EQ(want->second, digest) << name;
  }
}

}  // namespace
