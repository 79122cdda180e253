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

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apec/calculator.h"
#include "apec/parameter_space.h"
#include "apec/spectrum.h"
#include "atomic/database.h"
#include "core/gpu_task_executor.h"
#include "core/hybrid.h"
#include "quad/batch.h"
#include "quad/integrate.h"
#include "rrc/rrc.h"
#include "rrc/rrc_batch.h"
#include "util/fastmath.h"
#include "util/rng.h"
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
    cfg.max_queue_length = 32;  // every task on the device
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

// One task on the host path, accumulated as the owning rank does.
void execute_task_degraded(const apec::SpectrumCalculator& calc,
                           const core::SpectralTask& task,
                           const apec::PointPopulations& pops,
                           apec::Spectrum& spectrum) {
  if (task.closed_form()) {
    calc.accumulate_ion(task.ion, pops, spectrum);
    return;
  }
  std::vector<double> emi(calc.grid().bin_count());
  core::integrate_task_degraded(calc, task, pops, emi);
  core::accumulate_task_result(calc, task, pops, emi, spectrum);
}

TEST_F(PolicyBatchTest, DegradedExecutorMatchesGpuExecutorBitwise) {
  // The host path must keep the identity whether or not the policy
  // batches — all four executor/flag combinations, same bytes.
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
    execute_task_degraded(scalar_calc, task, pops, deg_scalar);
    execute_task_degraded(batch_calc, task, pops, deg_batch);
  }
  expect_bitwise_equal(gpu_scalar.values(), gpu_batch.values(),
                       "gpu batch on/off");
  expect_bitwise_equal(gpu_scalar.values(), deg_scalar.values(),
                       "gpu vs degraded, scalar");
  expect_bitwise_equal(gpu_scalar.values(), deg_batch.values(),
                       "gpu vs degraded, batched");
}

// ------------------------------------------ the integrand, element by element
//
// The kernel-level tests above see the integrand only through whole bin
// integrals. These pin RrcBatchIntegrand to rrc_power_density one abscissa
// at a time, so a lane that rounds differently fails here with its inputs
// named. On an AVX2+FMA host the batch calls run the x86-64-v3 clone (its
// vector body for spans of 4 or more, its scalar remainder for the rest).

std::string describe(const rrc::RrcChannel& ch, const rrc::PlasmaState& plasma,
                     double e, double want, double got) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "Z=%d n=%d I=%a kT=%a gaunt=%d e=%a: scalar %a, batch %a",
                ch.recombining_charge, ch.level.n, ch.level.binding_keV,
                plasma.kT_keV.value(), ch.gaunt_correction ? 1 : 0, e, want,
                got);
  return buf;
}

// Evaluates `es` through RrcBatchIntegrand in one span and compares every
// element with the scalar integrand. Returns the number of mismatches and
// keeps the first one's description.
std::size_t count_integrand_mismatches(const rrc::RrcChannel& ch,
                                       const rrc::PlasmaState& plasma,
                                       const std::vector<double>& es,
                                       std::string& first) {
  std::vector<double> ys(es.size());
  rrc::RrcBatchIntegrand(ch, plasma)(es, ys);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < es.size(); ++i) {
    const double want =
        rrc::rrc_power_density(ch, plasma, util::KeV{es[i]}).value();
    if (std::memcmp(&want, &ys[i], sizeof(double)) == 0) continue;
    if (bad++ == 0) first = describe(ch, plasma, es[i], want, ys[i]);
  }
  return bad;
}

TEST(RrcIntegrandIdentity, RandomizedTriplesMatchScalarBitwise) {
  // Per Gaunt setting: kChannels random channel/temperature pairs, each at
  // kEnergies random photon energies from 0.1x to 100x the threshold (about
  // a third below it). 67 is odd, so every span runs a vector body and a
  // scalar remainder.
  constexpr std::size_t kChannels = 1600;
  constexpr std::size_t kEnergies = 67;
  util::Xoshiro256 rng(0x5eed'2015'1cbbULL);
  auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  std::size_t evaluated = 0;
  for (const bool gaunt : {false, true}) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      rrc::RrcChannel ch;
      ch.recombining_charge = 1 + static_cast<int>(rng.bounded(30));
      ch.level.n = 1 + static_cast<int>(rng.bounded(10));
      ch.level.binding_keV = log_uniform(1e-3, 1e2);
      ch.gaunt_correction = gaunt;
      const rrc::PlasmaState plasma{util::KeV{log_uniform(1e-3, 1e2)},
                                    util::PerCm3{log_uniform(1e-2, 1e12)},
                                    util::PerCm3{log_uniform(1e-2, 1e12)}};
      std::vector<double> es(kEnergies);
      for (double& e : es) e = ch.level.binding_keV * log_uniform(0.1, 100.0);
      std::string first;
      ASSERT_EQ(count_integrand_mismatches(ch, plasma, es, first), 0u)
          << first;
      evaluated += es.size();
    }
  }
  EXPECT_GE(evaluated, 100'000u);
}

TEST(RrcIntegrandIdentity, EdgeCasesMatchScalarBitwise) {
  // fm::log moves a mantissa at or above sqrt(2)'s into the next binade.
  // With a power-of-two threshold, e / I is exact, so these energies put
  // the Gaunt log's argument on either side of that boundary.
  constexpr std::uint64_t kSqrt2Mant = 0x6A09E667F3BCDull;
  constexpr std::uint64_t kOne = 0x3FF0000000000000ull;
  const double thresholds[] = {1.0, 0.5, 0x1p-7, 0.871, 13.6e-3};
  const double temperatures[] = {1.0, 1e-3, 30.0};
  for (const bool gaunt : {false, true}) {
    for (const double binding : thresholds) {
      for (const double kt : temperatures) {
        rrc::RrcChannel ch;
        ch.recombining_charge = 8;
        ch.level.n = 2;
        ch.level.binding_keV = binding;
        ch.gaunt_correction = gaunt;
        const rrc::PlasmaState plasma{util::KeV{kt}, util::PerCm3{1.0},
                                      util::PerCm3{1.0}};
        const double inf = std::numeric_limits<double>::infinity();
        // e == I and one ulp either side; e = 0.
        std::vector<double> es = {binding, std::nextafter(binding, 0.0),
                                  std::nextafter(binding, inf), 0.0};
        for (const std::uint64_t mant :
             {kSqrt2Mant - 1, kSqrt2Mant, kSqrt2Mant + 1}) {
          const double r = std::bit_cast<double>(kOne | mant);
          for (const double scale : {1.0, 2.0, 0x1p10})
            es.push_back(binding * (r * scale));
        }
        // -(e - I)/kT below, at and past fm::exp's -708 clamp.
        for (const double x : {707.9, 708.0, 708.0000001, 709.0, 745.2, 1e4})
          es.push_back(binding + x * kt);
        std::string first;
        EXPECT_EQ(count_integrand_mismatches(ch, plasma, es, first), 0u)
            << first;
        // The same energies one at a time: a span shorter than a vector
        // takes the loop's scalar remainder.
        for (const double e : es) {
          EXPECT_EQ(count_integrand_mismatches(ch, plasma, {e}, first), 0u)
              << first;
        }
      }
    }
  }
}

TEST(RrcIntegrandIdentity, GauntLogSweepsEveryBinade) {
  // With I = 2^-1022 (the smallest normal), e = I * 2^k * m puts e / I at
  // every binade a finite energy can reach, on both sides of the sqrt(2)
  // mantissa boundary, through the batched Gaunt log.
  rrc::RrcChannel ch;
  ch.recombining_charge = 1;
  ch.level.n = 1;
  ch.level.binding_keV = std::numeric_limits<double>::min();
  ch.gaunt_correction = true;
  const rrc::PlasmaState plasma{util::KeV{1.0}, util::PerCm3{1.0},
                                util::PerCm3{1.0}};
  std::vector<double> es;
  for (int k = 0; k <= 2045; ++k)
    for (const double m : {1.0, 1.25, 1.5, 1.99})
      es.push_back(std::ldexp(m, k - 1022));
  std::string first;
  EXPECT_EQ(count_integrand_mismatches(ch, plasma, es, first), 0u) << first;
}

// fm::log as it was written before its exponent conversion became
// cast-free: the biased exponent went through an int64 -> double cast,
// which AVX2 cannot vectorize. Kept verbatim as the oracle for the
// magic-number form, which must agree with it bit for bit.
double log_int64_cast_oracle(double x) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  constexpr std::uint64_t kSqrt2Mant = 0x6A09E667F3BCDull;
  const std::uint64_t mant = bits & 0xFFFFFFFFFFFFFull;
  const std::uint64_t hi = mant >= kSqrt2Mant ? 1u : 0u;
  const double ed =
      static_cast<double>(static_cast<std::int64_t>(bits >> 52) - 1023 +
                          static_cast<std::int64_t>(hi));
  const double m = std::bit_cast<double>(mant | ((1023ull - hi) << 52));
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  double p = 1.479819860511658591e-01;
  p = std::fma(p, z, 1.531383769920937332e-01);
  p = std::fma(p, z, 1.818357216161805012e-01);
  p = std::fma(p, z, 2.222219843214978396e-01);
  p = std::fma(p, z, 2.857142874366239149e-01);
  p = std::fma(p, z, 3.999999999940941908e-01);
  p = std::fma(p, z, 6.666666666666735130e-01);
  const double r = z * p;
  const double hfsq = 0.5 * f * f;
  const double k1 = std::fma(s, hfsq + r, ed * kLn2Lo);
  return std::fma(ed, kLn2Hi, f - (hfsq - k1));
}

TEST(FastMath, LogMatchesInt64CastOracleOnEveryNormalExponent) {
  constexpr std::uint64_t kSqrt2Mant = 0x6A09E667F3BCDull;
  constexpr std::uint64_t kMantMask = 0xFFFFFFFFFFFFFull;
  util::Xoshiro256 rng(0x109'0ff5e7ULL);
  std::size_t checked = 0;
  for (std::uint64_t biased = 1; biased <= 2046; ++biased) {
    std::vector<std::uint64_t> mants = {0,          1,
                                        kSqrt2Mant - 1, kSqrt2Mant,
                                        kSqrt2Mant + 1, kMantMask};
    for (int i = 0; i < 4; ++i) mants.push_back(rng() & kMantMask);
    for (const std::uint64_t mant : mants) {
      const double x = std::bit_cast<double>((biased << 52) | mant);
      const double want = log_int64_cast_oracle(x);
      const double got = util::fm::log(x);
      ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << "biased exponent " << biased << ", mantissa 0x" << std::hex
          << mant << ": oracle " << want << ", fm::log " << got;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2046u * 10u);
}

}  // namespace
