// ablation_scheduler — the paper's §II-B/§V design argument, replayed on
// the DES: "the MPS ... client-server architecture will introduce much
// extra overhead if each task is fast and scheduling is quite frequent like
// in the spectral calculation." Same workload with the per-task scheduling
// round trip set to (a) the shm cost and (b) an IPC round trip. This is the
// table ablation_scheduler.csv tracks.

#include <cstdio>

#include "common.h"
#include "util/table.h"

int main() {
  using namespace hspec;
  std::fputs(util::bench_banner(
                 "Ablation — shm vs MPS-style client-server scheduling",
                 "IPC round trips price the paper's shm design argument")
                 .c_str(),
             stdout);

  const perfmodel::PaperCalibration cal;
  const perfmodel::SpectralCostModel model(cal, perfmodel::paper_workload());

  util::Table t({"granularity", "scheduler", "round trip", "total (s)",
                 "overhead vs shm"});
  double base[2] = {0.0, 0.0};
  double penalty[2] = {0.0, 0.0};  // MPS makespan over shm, per granularity
  for (int gi = 0; gi < 2; ++gi) {
    const auto gran = gi == 0 ? core::TaskGranularity::ion
                              : core::TaskGranularity::level;
    for (int mode = 0; mode < 2; ++mode) {
      auto cfg = bench::spectral_sim_config(model, 3, 10, gran);
      const double rt = mode == 0 ? cal.shm_scheduler_overhead_s
                                  : cal.mps_scheduler_overhead_s;
      // Client-server scheduling costs the round trip on submission too
      // (request + response), not just on completion.
      cfg.sched_overhead_s = rt;
      cfg.prep_s += mode == 0 ? rt : 2.0 * rt;
      const auto res = sim::simulate_hybrid(cfg);
      if (mode == 0) base[gi] = res.makespan_s;
      penalty[gi] = res.makespan_s / base[gi];
      char overhead[32];
      std::snprintf(overhead, sizeof overhead, "+%.2f%%",
                    100.0 * (res.makespan_s - base[gi]) / base[gi]);
      t.add_row({core::to_string(gran),
                 mode == 0 ? "shared memory" : "MPS-style client-server",
                 mode == 0 ? "2 us" : "200 us",
                 util::Table::num(res.makespan_s, 4),
                 mode == 0 ? "-" : overhead});
    }
  }
  std::fputs(t.str().c_str(), stdout);
  t.write_csv("ablation_scheduler.csv");

  std::printf("\nshape checks:\n");
  bench::check(penalty[0] > 1.0, "client-server costs extra time at ion "
                                 "granularity");
  bench::check(penalty[1] > penalty[0],
               "penalty grows with scheduling frequency (Level > Ion)");
  std::printf("\ncsv: ablation_scheduler.csv\n");
  return 0;
}
