#include "core/hybrid.h"

#include <stdexcept>

#include "core/hybrid_executor.h"
#include "core/shm.h"

namespace hspec::core {

void validate(const HybridConfig& config) {
  if (config.ranks < 1)
    throw std::invalid_argument("HybridConfig: need at least one rank");
  if (config.ranks > kMaxRanks)
    throw std::invalid_argument("HybridConfig: too many ranks for the queue");
  if (config.max_queue_length < 1)
    throw std::invalid_argument("HybridConfig: max queue length must be >= 1");
  if (config.pipeline_depth < 1)
    throw std::invalid_argument("HybridConfig: pipeline depth must be >= 1");
  if (config.steal_chunk < 1)
    throw std::invalid_argument("HybridConfig: steal chunk must be >= 1");
  if (config.max_task_attempts < 1)
    throw std::invalid_argument("HybridConfig: max task attempts must be >= 1");
  if (config.degrade_after < 1)
    throw std::invalid_argument("HybridConfig: degrade_after must be >= 1");
  if (config.quarantine_after < config.degrade_after)
    throw std::invalid_argument(
        "HybridConfig: quarantine_after must be >= degrade_after");
}

std::vector<SpectralTask> make_tasks(const apec::SpectrumCalculator& calc,
                                     const apec::GridPoint& point,
                                     const apec::PointPopulations& pops,
                                     TaskGranularity granularity) {
  std::vector<SpectralTask> tasks;
  for (const atomic::IonUnit& ion : calc.populated_ions(pops)) {
    if (granularity == TaskGranularity::level && ion.emits_rrc()) {
      const std::size_t levels = calc.database().level_count_for(ion);
      for (std::size_t li = 0; li < levels; ++li)
        tasks.push_back({point, ion, granularity, li});
    } else {
      tasks.push_back({point, ion, TaskGranularity::ion, 0});
    }
  }
  return tasks;
}

HybridDriver::HybridDriver(const apec::SpectrumCalculator& calculator,
                           HybridConfig config)
    : calc_(&calculator), config_(config) {
  // Fail at construction, before run() builds the device stack.
  validate(config_);
}

HybridResult HybridDriver::run(const std::vector<apec::GridPoint>& points) {
  // One-shot semantics = a fresh executor running a single batch. The
  // always-on path (service::SpectralService) holds one HybridExecutor and
  // pumps run_batch repeatedly instead.
  HybridExecutor executor(*calc_, config_);
  return executor.run_batch(points);
}

}  // namespace hspec::core
