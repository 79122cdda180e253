// Bitwise-identity contract of the batched integration path, plus the
// ScratchArena allocation semantics it leans on.
//
// The batched kernels (record / evaluate / replay, quad/batch.h) promise
// output bytes identical to the scalar oracle for every kernel method, every
// entry point (stream kernel, host/degraded), accumulate mode, and the
// lower-cutoff clamp — a promise strong enough that flipping
// IntegrationPolicy::batch must not change a single spectrum bit. These
// tests pin that promise with memcmp, never EXPECT_NEAR.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "apec/calculator.h"
#include "apec/parameter_space.h"
#include "apec/spectrum.h"
#include "atomic/database.h"
#include "core/cpu_task_executor.h"
#include "core/gpu_task_executor.h"
#include "core/hybrid.h"
#include "quad/batch.h"
#include "quad/integrate.h"
#include "rrc/rrc.h"
#include "rrc/rrc_batch.h"
#include "vgpu/arena.h"
#include "vgpu/device.h"
#include "vgpu/integr_kernel.h"
#include "vgpu/stream.h"

namespace {

using namespace hspec;
using namespace hspec::vgpu;

// Every kernel-eligible method, with a param typical for it. The batched
// path must be bit-identical under all of them, not just the paper default.
struct MethodCase {
  quad::KernelMethod method;
  std::size_t param;
};

const MethodCase kAllMethods[] = {
    {quad::KernelMethod::simpson, quad::kPaperSimpsonPanels},
    {quad::KernelMethod::trapezoid, 32},
    {quad::KernelMethod::romberg, 6},
    {quad::KernelMethod::gauss, 12},
};

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << ": element " << i << " differs: " << a[i] << " vs " << b[i];
}

// The production integrand pair: the scalar RRC rate and its batched
// structure-of-arrays twin, which share every transcendental (util/fastmath)
// and every association choice by construction.
struct RrcPair {
  RrcPair() {
    ch.recombining_charge = 8;
    ch.level.n = 1;
    ch.level.binding_keV = 0.871;  // O VIII K-shell
    ch.gaunt_correction = true;
    plasma = rrc::PlasmaState{util::KeV{1.0}, util::PerCm3{1.0},
                              util::PerCm3{1.0}};
  }
  double scalar(double e) const {
    return rrc::rrc_power_density(ch, plasma, util::KeV{e}).value();
  }
  rrc::RrcChannel ch;
  rrc::PlasmaState plasma;
};

// Energy-non-uniform edges (wavelength-uniform grids land this shape).
std::vector<double> geometric_edges(double lo, double hi, std::size_t bins) {
  std::vector<double> edges(bins + 1);
  const double r = std::pow(hi / lo, 1.0 / static_cast<double>(bins));
  edges[0] = lo;
  for (std::size_t i = 1; i < bins; ++i) edges[i] = edges[i - 1] * r;
  edges[bins] = hi;
  return edges;
}

// ------------------------------------------------------------- ScratchArena

TEST(ScratchArena, BumpAllocationTracksStats) {
  ScratchArena arena(64);
  const auto a = arena.alloc(16);
  const auto b = arena.alloc(16);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(a.data(), b.data());
  const auto s = arena.stats();
  EXPECT_EQ(s.used_doubles, 32u);
  EXPECT_EQ(s.allocations, 2u);
  EXPECT_EQ(s.growths, 1u);  // lazy first block only; both allocs fit it
  EXPECT_GE(s.capacity_doubles, 64u);
}

TEST(ScratchArena, ResetKeepsCapacityAndZeroesUse) {
  ScratchArena arena(32);
  arena.alloc(32);
  arena.alloc(100);  // forces a growth
  const auto before = arena.stats();
  arena.reset();
  const auto after = arena.stats();
  EXPECT_EQ(after.capacity_doubles, before.capacity_doubles);
  EXPECT_EQ(after.blocks, before.blocks);
  EXPECT_EQ(after.used_doubles, 0u);
  EXPECT_EQ(after.resets, 1u);
  // Warm arena: the same demand is served with zero further growth.
  arena.alloc(32);
  arena.alloc(100);
  EXPECT_EQ(arena.stats().growths, before.growths);
}

TEST(ScratchArena, GrowthKeepsPreviousSpansValid) {
  ScratchArena arena(8);
  auto first = arena.alloc(8);
  for (std::size_t i = 0; i < first.size(); ++i)
    first[i] = static_cast<double>(i) + 0.5;
  auto big = arena.alloc(4096);  // cannot fit: appends a block
  big[0] = -1.0;
  EXPECT_GE(arena.stats().growths, 1u);
  EXPECT_GE(arena.stats().blocks, 2u);
  // Existing blocks never move, so the first span still reads back intact.
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], static_cast<double>(i) + 0.5);
}

TEST(ScratchArena, AllocZeroThrows) {
  ScratchArena arena;
  EXPECT_THROW(arena.alloc(0), std::invalid_argument);
}

TEST(ScratchArena, ArenasAreIndependent) {
  ScratchArena a(16);
  ScratchArena b(16);
  const auto sa = a.alloc(8);
  const auto sb = b.alloc(8);
  EXPECT_NE(sa.data(), sb.data());
  a.reset();
  EXPECT_EQ(a.stats().resets, 1u);
  EXPECT_EQ(b.stats().resets, 0u);
  EXPECT_EQ(b.stats().used_doubles, 8u);
}

// -------------------------------------------- record / evaluate / replay core

TEST(BatchRules, CombineReplaysIntegrateBitwiseAllMethods) {
  const RrcPair rrc;
  const double a = 0.9, b = 1.7;
  for (const auto& mc : kAllMethods) {
    const std::size_t evals = quad::kernel_cost_evals(mc.method, mc.param);
    std::vector<double> xs(evals), ys(evals);
    quad::kernel_abscissae(mc.method, mc.param, a, b, xs);
    for (std::size_t i = 0; i < evals; ++i) ys[i] = rrc.scalar(xs[i]);
    const auto direct = quad::kernel_integrate(
        mc.method, mc.param, [&](double e) { return rrc.scalar(e); }, a, b);
    const auto replayed = quad::kernel_combine(mc.method, mc.param, a, b, ys);
    EXPECT_EQ(std::memcmp(&direct.value, &replayed.value, sizeof(double)), 0)
        << to_string(mc.method);
    EXPECT_EQ(std::memcmp(&direct.error, &replayed.error, sizeof(double)), 0)
        << to_string(mc.method);
    EXPECT_EQ(direct.evaluations, replayed.evaluations) << to_string(mc.method);
  }
}

// ------------------------------------------------- kernel entry point parity

class BatchKernelIdentity : public ::testing::Test {
 protected:
  BatchKernelIdentity()
      : dev_(tesla_c2075(), 0), sched_(dev_), stream_(sched_, dev_) {}

  // Runs scalar and batched gpu_integr_edges_stream over the same edges and
  // config; returns both emissivity arrays.
  std::pair<std::vector<double>, std::vector<double>> run_edges_device(
      std::span<const double> edges, const IntegrLaunchConfig& cfg) {
    const std::size_t bins = edges.size() - 1;
    DeviceBuffer edges_dev = dev_.alloc(edges.size() * sizeof(double));
    dev_.copy_to_device(edges_dev, edges.data(), edges.size() * sizeof(double));
    DeviceBuffer emi = dev_.alloc(bins * sizeof(double));

    std::vector<double> scalar_out(bins), batch_out(bins);
    auto f = [&](double e) { return rrc_.scalar(e); };
    gpu_integr_edges_stream(stream_, edges_dev, bins, f, emi, cfg);
    dev_.copy_to_host(scalar_out.data(), emi, bins * sizeof(double));

    const rrc::RrcBatchIntegrand bf(rrc_.ch, rrc_.plasma);
    arena_.reset();
    gpu_integr_edges_stream(stream_, edges_dev, bins, bf, emi, arena_, cfg);
    dev_.copy_to_host(batch_out.data(), emi, bins * sizeof(double));
    return {std::move(scalar_out), std::move(batch_out)};
  }

  Device dev_;
  StreamScheduler sched_;
  Stream stream_;
  RrcPair rrc_;
  ScratchArena arena_;
};

TEST_F(BatchKernelIdentity, EdgesDeviceAllMethods) {
  // 600 bins crosses several grid-stride thread runs, so per-thread batch
  // chunking differs from bin order — identity must not care.
  const auto edges = geometric_edges(0.2, 10.0, 600);
  for (const auto& mc : kAllMethods) {
    IntegrLaunchConfig cfg;
    cfg.method = mc.method;
    cfg.method_param = mc.param;
    cfg.lower_cutoff = rrc_.ch.level.binding_keV;
    const auto [scalar_out, batch_out] = run_edges_device(edges, cfg);
    expect_bitwise_equal(scalar_out, batch_out, to_string(mc.method).c_str());
  }
}

TEST_F(BatchKernelIdentity, ScalarBatchAdapterIsTriviallyIdentical) {
  // The adapter loops the scalar integrand, so identity holds for ANY
  // integrand — here one with no handwritten batch form.
  const auto edges = geometric_edges(0.5, 4.0, 97);
  auto f = [](double x) { return std::exp(-x) * std::sin(3.0 * x) + 2.0; };
  const std::size_t bins = edges.size() - 1;
  DeviceBuffer edges_dev = dev_.alloc(edges.size() * sizeof(double));
  dev_.copy_to_device(edges_dev, edges.data(), edges.size() * sizeof(double));
  DeviceBuffer emi = dev_.alloc(bins * sizeof(double));
  IntegrLaunchConfig cfg;

  std::vector<double> scalar_out(bins), batch_out(bins);
  gpu_integr_edges_stream(stream_, edges_dev, bins, f, emi, cfg);
  dev_.copy_to_host(scalar_out.data(), emi, bins * sizeof(double));
  const quad::ScalarBatchAdapter adapter{quad::Integrand(f)};
  gpu_integr_edges_stream(stream_, edges_dev, bins, adapter, emi, arena_, cfg);
  dev_.copy_to_host(batch_out.data(), emi, bins * sizeof(double));
  expect_bitwise_equal(scalar_out, batch_out, "adapter");
}

TEST_F(BatchKernelIdentity, AccumulateModeAcrossLaunches) {
  // Two accumulate launches model two energy levels of one ion task; the
  // += order must match between paths, so the sums stay bitwise equal.
  const auto edges = geometric_edges(0.2, 10.0, 128);
  const std::size_t bins = edges.size() - 1;
  DeviceBuffer edges_dev = dev_.alloc(edges.size() * sizeof(double));
  dev_.copy_to_device(edges_dev, edges.data(), edges.size() * sizeof(double));
  DeviceBuffer emi = dev_.alloc(bins * sizeof(double));
  IntegrLaunchConfig cfg;
  cfg.accumulate = true;
  cfg.lower_cutoff = rrc_.ch.level.binding_keV;
  auto f = [&](double e) { return rrc_.scalar(e); };
  const rrc::RrcBatchIntegrand bf(rrc_.ch, rrc_.plasma);

  const std::vector<double> zeros(bins, 0.0);
  std::vector<double> scalar_out(bins), batch_out(bins);
  dev_.copy_to_device(emi, zeros.data(), bins * sizeof(double));
  gpu_integr_edges_stream(stream_, edges_dev, bins, f, emi, cfg);
  gpu_integr_edges_stream(stream_, edges_dev, bins, f, emi, cfg);
  dev_.copy_to_host(scalar_out.data(), emi, bins * sizeof(double));

  dev_.copy_to_device(emi, zeros.data(), bins * sizeof(double));
  gpu_integr_edges_stream(stream_, edges_dev, bins, bf, emi, arena_, cfg);
  gpu_integr_edges_stream(stream_, edges_dev, bins, bf, emi, arena_, cfg);
  dev_.copy_to_host(batch_out.data(), emi, bins * sizeof(double));
  expect_bitwise_equal(scalar_out, batch_out, "accumulate");
}

TEST_F(BatchKernelIdentity, CutoffClampMatchesPerBinRule) {
  // The cutoff lands mid-grid: some bins are dead, one straddles. Both
  // paths must zero the dead bins and clamp the straddler identically.
  const auto edges = geometric_edges(0.2, 10.0, 64);
  IntegrLaunchConfig cfg;
  cfg.lower_cutoff = 1.3;
  const auto [scalar_out, batch_out] = run_edges_device(edges, cfg);
  expect_bitwise_equal(scalar_out, batch_out, "cutoff");

  auto f = [&](double e) { return rrc_.scalar(e); };
  bool saw_dead = false, saw_straddle = false;
  for (std::size_t b = 0; b + 1 < edges.size(); ++b) {
    if (edges[b + 1] <= cfg.lower_cutoff) {
      EXPECT_EQ(batch_out[b], 0.0) << "bin " << b << " is below the cutoff";
      saw_dead = true;
    } else {
      const double left = std::max(edges[b], cfg.lower_cutoff);
      saw_straddle |= left != edges[b];
      const auto ref = quad::kernel_integrate(cfg.method, cfg.method_param, f,
                                              left, edges[b + 1]);
      EXPECT_EQ(std::memcmp(&batch_out[b], &ref.value, sizeof(double)), 0)
          << "bin " << b;
    }
  }
  EXPECT_TRUE(saw_dead);
  EXPECT_TRUE(saw_straddle);
}

TEST_F(BatchKernelIdentity, StreamBatchMatchesHostScalar) {
  // The batched stream kernel against the scalar oracle off the device.
  const auto edges = geometric_edges(0.2, 10.0, 200);
  const std::size_t bins = edges.size() - 1;
  DeviceBuffer edges_dev = dev_.alloc(edges.size() * sizeof(double));
  dev_.copy_to_device(edges_dev, edges.data(), edges.size() * sizeof(double));
  DeviceBuffer emi = dev_.alloc(bins * sizeof(double));
  IntegrLaunchConfig cfg;
  cfg.lower_cutoff = rrc_.ch.level.binding_keV;

  std::vector<double> scalar_out(bins), batch_out(bins);
  auto f = [&](double e) { return rrc_.scalar(e); };
  integr_edges_host(edges, bins, f, scalar_out, cfg);

  const rrc::RrcBatchIntegrand bf(rrc_.ch, rrc_.plasma);
  gpu_integr_edges_stream(stream_, edges_dev, bins, bf, emi, arena_, cfg);
  stream_.synchronize();
  dev_.copy_to_host(batch_out.data(), emi, bins * sizeof(double));
  expect_bitwise_equal(scalar_out, batch_out, "stream");
}

TEST_F(BatchKernelIdentity, HostDegradedPathMatchesDevice) {
  // 600 bins > the host path's 256-bin chunk, so chunk boundaries are
  // exercised; chunking must be invisible in the bytes.
  const auto edges = geometric_edges(0.2, 10.0, 600);
  const std::size_t bins = edges.size() - 1;
  IntegrLaunchConfig cfg;
  cfg.lower_cutoff = rrc_.ch.level.binding_keV;

  std::vector<double> host_scalar(bins), host_batch(bins);
  auto f = [&](double e) { return rrc_.scalar(e); };
  integr_edges_host(edges, bins, f, host_scalar, cfg);
  const rrc::RrcBatchIntegrand bf(rrc_.ch, rrc_.plasma);
  integr_edges_host(edges, bins, bf, host_batch, arena_, cfg);
  expect_bitwise_equal(host_scalar, host_batch, "host scalar vs host batch");

  const auto [dev_scalar, dev_batch] = run_edges_device(edges, cfg);
  expect_bitwise_equal(host_batch, dev_scalar, "host batch vs device scalar");
  expect_bitwise_equal(host_batch, dev_batch, "host batch vs device batch");
}

TEST_F(BatchKernelIdentity, WarmArenaStopsGrowing) {
  const auto edges = geometric_edges(0.2, 10.0, 300);
  const std::size_t bins = edges.size() - 1;
  std::vector<double> emi(bins);
  const rrc::RrcBatchIntegrand bf(rrc_.ch, rrc_.plasma);
  IntegrLaunchConfig cfg;

  integr_edges_host(edges, bins, bf, emi, arena_, cfg);  // warm-up growth
  const auto warm = arena_.stats();
  for (int rep = 0; rep < 3; ++rep) {
    arena_.reset();
    integr_edges_host(edges, bins, bf, emi, arena_, cfg);
  }
  const auto steady = arena_.stats();
  EXPECT_EQ(steady.growths, warm.growths);  // zero heap traffic after warm-up
  EXPECT_EQ(steady.capacity_doubles, warm.capacity_doubles);
}

// ------------------------------------------------------ policy-level parity

class PolicyBatchTest : public ::testing::Test {
 protected:
  PolicyBatchTest() : db_(small_db()), grid_(apec::EnergyGrid::wavelength(
                                           5.0, 40.0, 48)) {}

  static atomic::DatabaseConfig small_db() {
    atomic::DatabaseConfig cfg;
    cfg.max_z = 8;
    cfg.levels = {2, true};
    return cfg;
  }
  static apec::CalcOptions options(bool batch) {
    apec::CalcOptions opt;
    opt.integration.adaptive = false;
    opt.integration.batch = batch;
    return opt;
  }
  static std::vector<apec::GridPoint> points() {
    return {{0.3, 1.0, 0.0, 0}, {0.8, 1.0, 0.0, 1}};
  }

  core::HybridResult run(bool batch, core::ExecutionMode mode) {
    apec::SpectrumCalculator calc(db_, grid_, options(batch));
    core::HybridConfig cfg;
    cfg.ranks = 2;
    cfg.devices = 1;
    cfg.mode = mode;
    cfg.max_queue_length = 32;  // keep every task off the QAGS path
    core::HybridDriver driver(calc, cfg);
    return driver.run(points());
  }

  atomic::AtomicDatabase db_;
  apec::EnergyGrid grid_;
};

TEST_F(PolicyBatchTest, BatchFlagDoesNotChangeSpectrumBits) {
  const auto scalar_run = run(false, core::ExecutionMode::synchronous);
  const auto batch_sync = run(true, core::ExecutionMode::synchronous);
  const auto batch_pipe = run(true, core::ExecutionMode::pipelined);
  ASSERT_EQ(scalar_run.spectra.size(), batch_sync.spectra.size());
  ASSERT_EQ(scalar_run.spectra.size(), batch_pipe.spectra.size());
  for (std::size_t p = 0; p < scalar_run.spectra.size(); ++p) {
    expect_bitwise_equal(scalar_run.spectra[p].values(),
                         batch_sync.spectra[p].values(), "sync batch on/off");
    expect_bitwise_equal(scalar_run.spectra[p].values(),
                         batch_pipe.spectra[p].values(), "pipelined batch");
  }
}

TEST_F(PolicyBatchTest, DegradedExecutorMatchesGpuExecutorBitwise) {
  // The graceful-degradation path must keep the identity whether or not the
  // policy batches — all four executor/flag combinations, same bytes.
  const apec::GridPoint pt{0.5, 1.0, 0.0, 0};
  const auto pops = apec::solve_populations(db_, pt);
  apec::SpectrumCalculator scalar_calc(db_, grid_, options(false));
  apec::SpectrumCalculator batch_calc(db_, grid_, options(true));
  const auto tasks =
      core::make_tasks(scalar_calc, pt, pops, core::TaskGranularity::ion);
  ASSERT_FALSE(tasks.empty());
  Device dev(tesla_c2075(), 0);

  apec::Spectrum gpu_scalar(grid_), gpu_batch(grid_);
  apec::Spectrum deg_scalar(grid_), deg_batch(grid_);
  for (const auto& task : tasks) {
    core::execute_task_on_gpu(scalar_calc, task, pops, dev, gpu_scalar);
    core::execute_task_on_gpu(batch_calc, task, pops, dev, gpu_batch);
    core::execute_task_degraded(scalar_calc, task, pops, deg_scalar);
    core::execute_task_degraded(batch_calc, task, pops, deg_batch);
  }
  expect_bitwise_equal(gpu_scalar.values(), gpu_batch.values(),
                       "gpu batch on/off");
  expect_bitwise_equal(gpu_scalar.values(), deg_scalar.values(),
                       "gpu vs degraded, scalar");
  expect_bitwise_equal(gpu_scalar.values(), deg_batch.values(),
                       "gpu vs degraded, batched");
}

}  // namespace
