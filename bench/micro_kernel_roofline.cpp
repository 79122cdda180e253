// Kernel roofline microbench: scalar vs batched integration hot path.
//
// Times integr_edges_host over a realistic RRC channel in both shapes —
// the scalar reference (one indirect call per abscissa, libm-free
// deterministic transcendentals) and the batched structure-of-arrays path
// (record / lane-parallel evaluate / replay) — on the same edges, method,
// and cutoff. Verifies the two emissivity arrays are bitwise identical,
// then writes a JSON record (schema hspec-bench-kernel-v2) that the CI
// bench-smoke job validates and the tracked BENCH_kernel.json baselines.
//
// The record splits the batched path into its two layers, each timed on
// its own over the same live bins: the integrand pass (RrcBatchIntegrand
// over every recorded abscissa, ns per evaluation) and the quadrature rule
// (kernel_abscissae + kernel_combine with no integrand, ns per bin).
//
// Raw bins/sec is machine-bound, so the record also carries a calibrated
// host FMA throughput measurement and the bins/sec normalized by it —
// comparable across machines to first order — plus the kernel's modeled
// bytes/flop (the roofline abscissa).
//
// Exit codes: 0 ok; 1 speedup below --min-speedup; 2 bitwise mismatch;
// 3 usage error.
//
// Usage:
//   micro_kernel_roofline [--bins N] [--panels P] [--repeat R]
//                         [--out FILE] [--min-speedup X]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "quad/batch.h"
#include "quad/integrate.h"
#include "rrc/rrc.h"
#include "rrc/rrc_batch.h"
#include "vgpu/arena.h"
#include "vgpu/integr_kernel.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calibrate sustained host FMA throughput [GFLOP/s]: eight independent
/// fma chains (enough ILP to fill the pipes), 2 flops per fma.
double calibrate_fma_gflops() {
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
  // Keep the accumulators observable so the loop cannot be elided.
  const double sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
  if (sink == 42.0) std::fprintf(stderr, "unlikely\n");
  return static_cast<double>(kIters) * 8.0 * 2.0 / dt / 1e9;
}

struct Args {
  std::size_t bins = 20'000;
  std::size_t panels = hspec::quad::kPaperSimpsonPanels;
  int repeat = 5;
  std::string out = "BENCH_kernel.json";
  double min_speedup = 0.0;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--bins") {
      const char* v = next();
      if (v == nullptr) return false;
      args.bins = static_cast<std::size_t>(std::stoull(v));
    } else if (flag == "--panels") {
      const char* v = next();
      if (v == nullptr) return false;
      args.panels = static_cast<std::size_t>(std::stoull(v));
    } else if (flag == "--repeat") {
      const char* v = next();
      if (v == nullptr) return false;
      args.repeat = std::stoi(v);
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args.out = v;
    } else if (flag == "--min-speedup") {
      const char* v = next();
      if (v == nullptr) return false;
      args.min_speedup = std::stod(v);
    } else {
      return false;
    }
  }
  return args.bins > 0 && args.panels > 0 && args.repeat > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hspec;

  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: micro_kernel_roofline [--bins N] [--panels P] "
                 "[--repeat R] [--out FILE] [--min-speedup X]\n";
    return 3;
  }

  // A mid-Z RRC channel at coronal temperature — the shape the production
  // kernels integrate all day. The grid spans the recombination edge so the
  // run exercises the cutoff select as well as the smooth tail.
  rrc::RrcChannel ch;
  ch.recombining_charge = 8;
  ch.level.n = 1;
  ch.level.binding_keV = 0.871;  // O VIII K-shell
  ch.gaunt_correction = true;
  rrc::PlasmaState plasma{util::KeV{1.0}, util::PerCm3{1.0}, util::PerCm3{1.0}};

  std::vector<double> edges(args.bins + 1);
  const double lo = 0.1, hi = 12.0;
  for (std::size_t i = 0; i <= args.bins; ++i)
    edges[i] =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(args.bins);

  vgpu::IntegrLaunchConfig cfg;
  cfg.method = quad::KernelMethod::simpson;
  cfg.method_param = args.panels;
  cfg.lower_cutoff = ch.level.binding_keV;

  auto scalar_f = [&](double e) {
    return rrc::rrc_power_density(ch, plasma, util::KeV{e}).value();
  };
  const rrc::RrcBatchIntegrand batch_f(ch, plasma);

  std::vector<double> emi_scalar(args.bins, 0.0);
  std::vector<double> emi_batch(args.bins, 0.0);
  vgpu::ScratchArena arena;

  // One untimed warmup of each path (page faults, arena growth), then the
  // best of `repeat` timed runs — minimum, not mean: the quantity being
  // measured is the kernel's speed, and every source of variance is slowdown.
  vgpu::integr_edges_host(edges, args.bins, scalar_f, emi_scalar, cfg);
  arena.reset();
  vgpu::integr_edges_host(edges, args.bins, batch_f, emi_batch, arena, cfg);

  double scalar_best_s = 1e300;
  for (int r = 0; r < args.repeat; ++r) {
    const Clock::time_point t0 = Clock::now();
    vgpu::integr_edges_host(edges, args.bins, scalar_f, emi_scalar, cfg);
    scalar_best_s = std::min(scalar_best_s, seconds_since(t0));
  }
  double batch_best_s = 1e300;
  for (int r = 0; r < args.repeat; ++r) {
    arena.reset();
    const Clock::time_point t0 = Clock::now();
    vgpu::integr_edges_host(edges, args.bins, batch_f, emi_batch, arena, cfg);
    batch_best_s = std::min(batch_best_s, seconds_since(t0));
  }

  // Layer split. Record every live bin's abscissae once (cutoff clamp as in
  // the kernel), then time the integrand pass and the rule separately.
  const std::size_t evals_per_bin =
      quad::kernel_cost_evals(cfg.method, cfg.method_param);
  std::vector<double> lefts, rights;
  for (std::size_t b = 0; b < args.bins; ++b) {
    if (edges[b + 1] <= cfg.lower_cutoff) continue;
    lefts.push_back(std::max(edges[b], cfg.lower_cutoff));
    rights.push_back(edges[b + 1]);
  }
  const std::size_t live_bins = lefts.size();
  std::vector<double> xs(live_bins * evals_per_bin);
  std::vector<double> ys(xs.size());
  auto record = [&] {
    for (std::size_t i = 0; i < live_bins; ++i)
      quad::kernel_abscissae(cfg.method, cfg.method_param, lefts[i], rights[i],
                             std::span<double>(xs).subspan(
                                 i * evals_per_bin, evals_per_bin));
  };
  auto replay = [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < live_bins; ++i)
      sum += quad::kernel_combine(cfg.method, cfg.method_param, lefts[i],
                                  rights[i],
                                  std::span<const double>(ys).subspan(
                                      i * evals_per_bin, evals_per_bin))
                 .value;
    return sum;
  };
  record();
  batch_f(xs, ys);
  double integrand_best_s = 1e300;
  for (int r = 0; r < args.repeat; ++r) {
    const Clock::time_point t0 = Clock::now();
    batch_f(xs, ys);
    integrand_best_s = std::min(integrand_best_s, seconds_since(t0));
  }
  double rule_best_s = 1e300;
  double rule_sink = 0.0;
  for (int r = 0; r < args.repeat; ++r) {
    const Clock::time_point t0 = Clock::now();
    record();
    rule_sink += replay();
    rule_best_s = std::min(rule_best_s, seconds_since(t0));
  }
  if (rule_sink == 42.0) std::fprintf(stderr, "unlikely\n");
  const double integrand_ns_per_eval =
      integrand_best_s / static_cast<double>(xs.size()) * 1e9;
  const double rule_ns_per_bin =
      rule_best_s / static_cast<double>(live_bins) * 1e9;

  // The whole point of the batched path is that it is a pure speedup:
  // bitwise-identical output or the run is void.
  std::size_t mismatches = 0;
  for (std::size_t b = 0; b < args.bins; ++b)
    if (std::memcmp(&emi_scalar[b], &emi_batch[b], sizeof(double)) != 0)
      ++mismatches;
  if (mismatches != 0) {
    std::cerr << "micro_kernel_roofline: " << mismatches << " of " << args.bins
              << " bins differ bitwise between scalar and batched paths\n";
    return 2;
  }

  const double n_bins = static_cast<double>(args.bins);
  const double scalar_bins_per_s = n_bins / scalar_best_s;
  const double batch_bins_per_s = n_bins / batch_best_s;
  const double speedup = batch_bins_per_s / scalar_bins_per_s;
  const double fma_gflops = calibrate_fma_gflops();

  const vgpu::WorkEstimate work = vgpu::integr_work(args.bins, cfg);
  const double bytes_per_flop =
      static_cast<double>(work.device_bytes) / work.flops;

  std::ofstream out(args.out);
  if (!out) {
    std::cerr << "micro_kernel_roofline: cannot write " << args.out << "\n";
    return 3;
  }
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"schema\": \"hspec-bench-kernel-v2\",\n"
      "  \"method\": \"simpson\",\n"
      "  \"panels\": %zu,\n"
      "  \"bins\": %zu,\n"
      "  \"live_bins\": %zu,\n"
      "  \"evals_per_bin\": %zu,\n"
      "  \"repeat\": %d,\n"
      "  \"scalar_bins_per_s\": %.6e,\n"
      "  \"batch_bins_per_s\": %.6e,\n"
      "  \"speedup\": %.4f,\n"
      "  \"integrand_ns_per_eval\": %.4f,\n"
      "  \"rule_ns_per_bin\": %.4f,\n"
      "  \"host_fma_gflops\": %.4f,\n"
      "  \"scalar_bins_per_s_per_gflops\": %.6e,\n"
      "  \"batch_bins_per_s_per_gflops\": %.6e,\n"
      "  \"model_bytes_per_flop\": %.6e,\n"
      "  \"bitwise_identical\": true\n"
      "}\n",
      args.panels, args.bins, live_bins, evals_per_bin, args.repeat,
      scalar_bins_per_s, batch_bins_per_s, speedup, integrand_ns_per_eval,
      rule_ns_per_bin, fma_gflops, scalar_bins_per_s / fma_gflops,
      batch_bins_per_s / fma_gflops, bytes_per_flop);
  out << buf;
  out.close();

  std::cout << "kernel roofline: " << args.bins << " bins x " << evals_per_bin
            << " evals  scalar " << scalar_bins_per_s << " bins/s, batched "
            << batch_bins_per_s << " bins/s, speedup " << speedup
            << "x (integrand " << integrand_ns_per_eval << " ns/eval, rule "
            << rule_ns_per_bin << " ns/bin), host fma " << fma_gflops
            << " GFLOP/s -> " << args.out << "\n";

  if (args.min_speedup > 0.0 && speedup < args.min_speedup) {
    std::cerr << "micro_kernel_roofline: speedup " << speedup
              << "x below required " << args.min_speedup << "x\n";
    return 1;
  }
  return 0;
}
