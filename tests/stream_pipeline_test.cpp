// Tests for the task executor in both modes: bit-identical spectra between
// synchronous and pipelined mode, resident-cache H2D savings, stream usage,
// and work stealing through the full hybrid driver.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "apec/calculator.h"
#include "core/hybrid.h"

namespace {

using namespace hspec;
using namespace hspec::core;

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : db_(small_db()), grid_(apec::EnergyGrid::wavelength(5.0, 40.0, 48)),
        calc_(db_, grid_, kernel_options()) {}

  static atomic::DatabaseConfig small_db() {
    atomic::DatabaseConfig cfg;
    cfg.max_z = 8;
    cfg.levels = {2, true};
    return cfg;
  }
  static apec::CalcOptions kernel_options() {
    apec::CalcOptions opt;
    opt.integration.adaptive = false;
    return opt;
  }

  static std::vector<apec::GridPoint> points(std::size_t n) {
    std::vector<apec::GridPoint> pts;
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back({0.25 + 0.1 * static_cast<double>(i), 1.0, 0.0, i});
    return pts;
  }

  HybridResult run(ExecutionMode mode, int ranks, int devices,
                   const std::vector<apec::GridPoint>& pts,
                   TaskGranularity g = TaskGranularity::ion) {
    HybridConfig cfg;
    cfg.ranks = ranks;
    cfg.devices = devices;
    cfg.granularity = g;
    // Deep enough that every verdict picks a device, so the stream and
    // cache counters cover every task. (A full queue would not move the
    // bits: the host path runs the kernel rule.)
    cfg.max_queue_length = 32;
    cfg.mode = mode;
    HybridDriver driver(calc_, cfg);
    return driver.run(pts);
  }

  static void expect_bit_identical(const HybridResult& a,
                                   const HybridResult& b) {
    ASSERT_EQ(a.spectra.size(), b.spectra.size());
    for (std::size_t p = 0; p < a.spectra.size(); ++p)
      for (std::size_t bin = 0; bin < a.spectra[p].bin_count(); ++bin)
        ASSERT_EQ(a.spectra[p][bin], b.spectra[p][bin])
            << "point " << p << " bin " << bin;
  }

  atomic::AtomicDatabase db_;
  apec::EnergyGrid grid_;
  apec::SpectrumCalculator calc_;
};

TEST_F(PipelineTest, AsyncSpectraBitIdenticalToSync) {
  const auto pts = points(3);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 4, 2, pts);
  expect_bit_identical(sync, async);
  EXPECT_EQ(sync.tasks_total, async.tasks_total);
}

TEST_F(PipelineTest, AsyncBitIdenticalAtLevelGranularityAndSingleRank) {
  const auto pts = points(2);
  expect_bit_identical(
      run(ExecutionMode::synchronous, 1, 1, pts, TaskGranularity::level),
      run(ExecutionMode::pipelined, 1, 1, pts, TaskGranularity::level));
}

TEST_F(PipelineTest, AsyncBitIdenticalWithoutDevices) {
  // CPU-only: every task runs the kernel rule on the host.
  const auto pts = points(2);
  const HybridResult sync = run(ExecutionMode::synchronous, 3, 0, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 3, 0, pts);
  expect_bit_identical(sync, async);
  EXPECT_EQ(async.pipeline.tasks_pipelined, 0u);
  EXPECT_EQ(async.pipeline.streams_used, 0u);
}

TEST_F(PipelineTest, ResidentCacheSavesMostH2DTraffic) {
  const auto pts = points(3);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 4, 2, pts);

  std::uint64_t sync_h2d = 0;
  std::uint64_t async_h2d = 0;
  for (const auto& st : sync.device_stats) sync_h2d += st.bytes_h2d;
  for (const auto& st : async.device_stats) async_h2d += st.bytes_h2d;
  ASSERT_GT(sync_h2d, 0u);
  // The edges went up once per device instead of once per task: >= 50%
  // H2D reduction (in fact ~100% here, since edges are the only upload).
  EXPECT_LE(async_h2d * 2, sync_h2d);
  EXPECT_GT(async.pipeline.cache_hits, 0u);
  EXPECT_EQ(async.pipeline.cache_misses,
            static_cast<std::uint64_t>(async.device_stats.size()));
  EXPECT_GT(async.pipeline.bytes_h2d_saved, 0u);
}

TEST_F(PipelineTest, PipelineShortensTheVirtualTimeline) {
  const auto pts = points(3);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 4, 2, pts);
  ASSERT_GT(sync.virtual_makespan_s, 0.0);
  ASSERT_GT(async.virtual_makespan_s, 0.0);
  // Overlapped copies + cached edges: the device timeline must shrink.
  EXPECT_LT(async.virtual_makespan_s, sync.virtual_makespan_s);
  EXPECT_GT(async.pipeline.streams_used, 0u);
  EXPECT_GT(async.pipeline.tasks_pipelined, 0u);
}

TEST_F(PipelineTest, SynchronousModeIsTheBlockingConfiguration) {
  // Synchronous mode is the one executor at depth 1 with per-task edge
  // uploads: every GPU task runs on the rank's one stream per device,
  // never leases the resident edges, and sends the (n_bins + 1) edges up
  // exactly once.
  const auto pts = points(3);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  ASSERT_GT(sync.pipeline.tasks_pipelined, 0u);
  EXPECT_LE(sync.pipeline.streams_used, 4u * 2u);
  EXPECT_EQ(sync.pipeline.cache_hits, 0u);
  EXPECT_EQ(sync.pipeline.cache_misses, 0u);
  std::uint64_t h2d = 0;
  for (const auto& st : sync.device_stats) h2d += st.bytes_h2d;
  EXPECT_EQ(h2d, sync.pipeline.tasks_pipelined * (grid_.bin_count() + 1) *
                     sizeof(double));
}

TEST_F(PipelineTest, WorkStealingComputesEveryPointExactlyOnce) {
  // More points than ranks and real per-point cost: on a loaded machine the
  // first rank to drain its seed range steals from the others. Exactly-once
  // is asserted by bit-identity with the synchronous single-rank reference —
  // a double- or never-computed point cannot match.
  const auto pts = points(10);
  const HybridResult reference = run(ExecutionMode::synchronous, 1, 2, pts);
  const HybridResult stolen = run(ExecutionMode::pipelined, 4, 2, pts);
  expect_bit_identical(reference, stolen);
  // Chunks move between ranks only via the queue; the counters must agree.
  EXPECT_LE(stolen.pipeline.stolen_points, pts.size());
  EXPECT_GE(stolen.pipeline.stolen_points, stolen.pipeline.steals);
}

TEST_F(PipelineTest, KeplerHyperQStillBitIdentical) {
  ::setenv("HSPEC_VGPU_ARCH", "kepler", 1);
  const auto pts = points(2);
  const HybridResult sync = run(ExecutionMode::synchronous, 4, 2, pts);
  const HybridResult async = run(ExecutionMode::pipelined, 4, 2, pts);
  ::unsetenv("HSPEC_VGPU_ARCH");
  expect_bit_identical(sync, async);
  EXPECT_LT(async.virtual_makespan_s, sync.virtual_makespan_s);
}

TEST_F(PipelineTest, FourRanksOnOneDeviceBitIdentical) {
  // Four ranks share one device, so their kernel bodies overlap on the
  // host; every run must still match one rank on one device bit for bit.
  const auto pts = points(6);
  const HybridResult reference = run(ExecutionMode::synchronous, 1, 1, pts);
  expect_bit_identical(reference, run(ExecutionMode::synchronous, 4, 1, pts));
  expect_bit_identical(reference, run(ExecutionMode::pipelined, 4, 1, pts));
  ::setenv("HSPEC_VGPU_ARCH", "kepler", 1);
  const HybridResult kepler = run(ExecutionMode::pipelined, 4, 1, pts);
  ::unsetenv("HSPEC_VGPU_ARCH");
  expect_bit_identical(reference, kepler);
}

TEST_F(PipelineTest, ValidatesPipelineConfig) {
  HybridConfig bad;
  bad.pipeline_depth = 0;
  EXPECT_THROW(HybridDriver(calc_, bad), std::invalid_argument);
  HybridConfig bad2;
  bad2.steal_chunk = 0;
  EXPECT_THROW(HybridDriver(calc_, bad2), std::invalid_argument);
  HybridConfig bad3;
  bad3.ranks = kMaxRanks + 1;
  EXPECT_THROW(HybridDriver(calc_, bad3), std::invalid_argument);
}

}  // namespace
