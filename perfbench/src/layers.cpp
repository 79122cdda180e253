#include "layers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>

#include "bench/common.h"
#include "core/gpu_task_executor.h"
#include "core/sched_policy.h"
#include "core/scheduler.h"
#include "core/shm.h"
#include "minimpi/minimpi.h"
#include "quad/batch.h"
#include "rrc/rrc_batch.h"
#include "stats.h"
#include "vgpu/arena.h"
#include "vgpu/buffer_pool.h"
#include "vgpu/device.h"

namespace perfbench {

namespace hs = hspec;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Stack::Stack()
    : db(hs::bench::bench_db_config(/*max_z=*/8, /*level_cap=*/2)),
      grid(hs::apec::EnergyGrid::wavelength(5.0, 40.0, 64)),
      calc(db, grid, hs::bench::bench_kernel_options()) {}

hs::core::HybridConfig hybrid_config(int ranks) {
  hs::core::HybridConfig cfg = hs::bench::bench_hybrid_config(
      kDevices, kMaxQueueLength, ranks, hs::core::ExecutionMode::pipelined);
  cfg.scheduling_policy = hs::core::SchedulingPolicyKind::dynamic_min_load;
  return cfg;
}

ReplayResult replay_points(const Stack& stack,
                           const std::vector<hs::apec::GridPoint>& points,
                           Tracer* tracer) {
  // One rank's device view, built outside the timed loop like the
  // executor's long-lived stack.
  hs::vgpu::DeviceRegistry registry(kDevices);
  hs::core::ShmRegion shm =
      hs::core::ShmRegion::create_inprocess(kDevices, kMaxQueueLength);
  hs::core::TaskScheduler scheduler(shm.view());
  auto policy = hs::core::SchedulingPolicy::make(
      hs::core::SchedulingPolicyKind::dynamic_min_load);
  hs::core::BatchContext ctx;
  ctx.calc = &stack.calc;
  ctx.granularity = hs::core::TaskGranularity::ion;
  ctx.device_count = kDevices;
  ctx.device_properties = &registry.device(0).properties();
  policy->begin_batch(ctx);
  std::vector<std::unique_ptr<hs::vgpu::BufferPool>> pools;
  for (int d = 0; d < kDevices; ++d)
    pools.push_back(std::make_unique<hs::vgpu::BufferPool>(
        registry.device(static_cast<std::size_t>(d))));
  hs::vgpu::ScratchArena arena;

  ReplayResult out;
  out.spectra.reserve(points.size());
  const Clock::time_point t0 = Clock::now();
  for (const hs::apec::GridPoint& point : points) {
    ScopedSpan point_span(tracer, "replay.point");
    const std::uint64_t parent = point_span.id();
    hs::apec::PointPopulations pops;
    {
      ScopedSpan s(tracer, "apec.populations", parent);
      pops = hs::apec::solve_populations(stack.db, point);
    }
    std::vector<hs::core::SpectralTask> tasks;
    {
      ScopedSpan s(tracer, "core.make_tasks", parent);
      tasks = hs::core::make_tasks(stack.calc, point, pops,
                                   hs::core::TaskGranularity::ion);
    }
    hs::apec::Spectrum local(stack.grid);
    for (const hs::core::SpectralTask& task : tasks) {
      int device = -1;
      {
        ScopedSpan s(tracer, "core.sched_decision", parent);
        device = policy->assign(task, scheduler);
      }
      // One rank never fills a queue of kMaxQueueLength.
      if (device < 0)
        throw std::runtime_error("replay: scheduler found no free device");
      {
        ScopedSpan s(tracer, "vgpu.execute_task", parent);
        hs::core::execute_task_on_gpu(
            stack.calc, task, pops,
            registry.device(static_cast<std::size_t>(device)), local,
            pools[static_cast<std::size_t>(device)].get(), &arena);
      }
      scheduler.sche_free(device);
    }
    {
      // The executor publishes a point as result.spectra[p] += local.
      ScopedSpan s(tracer, "core.accumulate", parent);
      out.spectra.emplace_back(stack.grid);
      out.spectra.back() += local;
    }
  }
  out.wall_s = seconds_since(t0);
  return out;
}

DirectResult direct_rrc_quad(const Stack& stack,
                             const std::vector<hs::apec::GridPoint>& points,
                             Tracer* tracer) {
  const hs::apec::IntegrationPolicy& pol = stack.calc.options().integration;
  const std::size_t evals_per_bin =
      hs::quad::kernel_cost_evals(pol.kernel, pol.kernel_param);
  const std::vector<double>& edges = stack.grid.edges();
  const std::size_t n_bins = stack.grid.bin_count();
  std::vector<double> xs(n_bins * evals_per_bin);
  std::vector<double> ys(n_bins * evals_per_bin);
  std::vector<double> emi(n_bins);

  DirectResult out;
  double sink = 0.0;
  for (const hs::apec::GridPoint& point : points) {
    const hs::apec::PointPopulations pops =
        hs::apec::solve_populations(stack.db, point);
    for (const hs::core::SpectralTask& task : hs::core::make_tasks(
             stack.calc, point, pops, hs::core::TaskGranularity::ion)) {
      if (task.ion.is_free_free() || !task.ion.emits_rrc()) continue;
      const hs::util::PerCm3 n_rec =
          pops.ion_density(task.ion.z, task.ion.charge);
      for (const hs::atomic::Level& level : stack.db.levels_for(task.ion)) {
        ScopedSpan level_span(tracer, "direct.level");
        hs::rrc::RrcChannel ch;
        ch.recombining_charge = task.ion.charge;
        ch.level = level;
        ch.gaunt_correction = stack.calc.options().gaunt_correction;
        const hs::rrc::PlasmaState plasma{pops.kT_keV, pops.ne_cm3, n_rec};
        const double cutoff = level.binding_keV;

        // Record: the same live-bin walk and clamp as the kernel.
        Clock::time_point t = Clock::now();
        std::size_t nx = 0;
        {
          ScopedSpan s(tracer, "quad.abscissae", level_span.id());
          for (std::size_t b = 0; b < n_bins; ++b) {
            if (edges[b + 1] <= cutoff) continue;
            const double left = std::max(edges[b], cutoff);
            hs::quad::kernel_abscissae(
                pol.kernel, pol.kernel_param, left, edges[b + 1],
                std::span<double>(xs).subspan(nx, evals_per_bin));
            nx += evals_per_bin;
          }
        }
        out.quad_s += seconds_since(t);

        t = Clock::now();
        {
          ScopedSpan s(tracer, "rrc.batch_integrand", level_span.id());
          const hs::rrc::RrcBatchIntegrand f(ch, plasma);
          f(std::span<const double>(xs.data(), nx),
            std::span<double>(ys.data(), nx));
        }
        out.rrc_s += seconds_since(t);

        t = Clock::now();
        {
          ScopedSpan s(tracer, "quad.combine", level_span.id());
          std::size_t k = 0;
          for (std::size_t b = 0; b < n_bins; ++b) {
            if (edges[b + 1] <= cutoff) continue;
            const double left = std::max(edges[b], cutoff);
            emi[b] += hs::quad::kernel_combine(
                          pol.kernel, pol.kernel_param, left, edges[b + 1],
                          std::span<const double>(ys).subspan(k,
                                                              evals_per_bin))
                          .value;
            k += evals_per_bin;
            ++out.live_bins;
          }
        }
        out.quad_s += seconds_since(t);
        out.evals += nx;
      }
    }
  }
  for (double v : emi) sink += v;
  if (!std::isfinite(sink))
    throw std::runtime_error("direct_rrc_quad: non-finite emissivity");
  return out;
}

double minimpi_run_us(int ranks, int reps, Tracer* tracer) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    ScopedSpan s(tracer, "minimpi.run");
    const Clock::time_point t0 = Clock::now();
    hs::minimpi::run(ranks,
                     [](hs::minimpi::Communicator& comm) { comm.barrier(); });
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

}  // namespace perfbench
