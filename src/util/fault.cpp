#include "util/fault.h"

#include <string>

#include "util/rng.h"

namespace hspec::util {

const char* to_string(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::h2d_transfer:
      return "h2d_transfer";
    case FaultSite::d2h_transfer:
      return "d2h_transfer";
    case FaultSite::kernel_launch:
      return "kernel_launch";
    case FaultSite::kernel_timeout:
      return "kernel_timeout";
    case FaultSite::stream_stall:
      return "stream_stall";
    case FaultSite::buffer_alloc:
      return "buffer_alloc";
    case FaultSite::device_death:
      return "device_death";
    case FaultSite::task_throw:
      return "task_throw";
  }
  return "unknown";
}

namespace {

std::string describe(FaultSite site, int device) {
  return std::string("injected fault: ") + to_string(site) + " on device " +
         std::to_string(device);
}

void validate_rate(double rate, const char* name) {
  if (!(rate >= 0.0 && rate <= 1.0))
    throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                " outside [0, 1]");
}

}  // namespace

FaultError::FaultError(FaultSite site, int device)
    : std::runtime_error(describe(site, device)),
      site_(site),
      device_(device) {}

FaultPlan::FaultPlan(const FaultPlanConfig& config) : cfg_(config) {
  validate_rate(cfg_.transfer_fault_rate, "transfer_fault_rate");
  validate_rate(cfg_.kernel_fault_rate, "kernel_fault_rate");
  validate_rate(cfg_.kernel_timeout_rate, "kernel_timeout_rate");
  validate_rate(cfg_.stream_stall_rate, "stream_stall_rate");
  validate_rate(cfg_.alloc_fault_rate, "alloc_fault_rate");
  validate_rate(cfg_.task_throw_rate, "task_throw_rate");
  if (cfg_.dead_device >= kMaxFaultDevices)
    throw std::invalid_argument("FaultPlan: dead_device past kMaxFaultDevices");
  if (cfg_.dies_after_ops < 0)
    throw std::invalid_argument("FaultPlan: dies_after_ops must be >= 0");
}

double FaultPlan::rate_for(FaultSite site) const noexcept {
  switch (site) {
    case FaultSite::h2d_transfer:
    case FaultSite::d2h_transfer:
      return cfg_.transfer_fault_rate;
    case FaultSite::kernel_launch:
      return cfg_.kernel_fault_rate;
    case FaultSite::kernel_timeout:
      return cfg_.kernel_timeout_rate;
    case FaultSite::stream_stall:
      return cfg_.stream_stall_rate;
    case FaultSite::buffer_alloc:
      return cfg_.alloc_fault_rate;
    case FaultSite::task_throw:
      return cfg_.task_throw_rate;
    case FaultSite::device_death:
      return 0.0;  // death is by op count, never by chance
  }
  return 0.0;
}

FaultDecision FaultPlan::query(FaultSite site, int device) noexcept {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (device < 0 || device >= kMaxFaultDevices) return {};
  const auto d = static_cast<std::size_t>(device);

  // A host-side task failure does not count towards the device's death.
  if (cfg_.dead_device == device && site != FaultSite::task_throw) {
    const std::int64_t op =
        device_ops_[d].fetch_add(1, std::memory_order_relaxed);
    if (op >= cfg_.dies_after_ops) {
      if (!dead_[d].exchange(true, std::memory_order_acq_rel))
        deaths_.fetch_add(1, std::memory_order_relaxed);
      injected_[static_cast<std::size_t>(FaultSite::device_death)].fetch_add(
          1, std::memory_order_relaxed);
      injected_total_.fetch_add(1, std::memory_order_relaxed);
      return {true, FaultSite::device_death, 0.0};
    }
  }

  const double rate = rate_for(site);
  if (rate <= 0.0) return {};
  const auto s = static_cast<std::size_t>(site);
  const std::int64_t op = site_ops_[s][d].fetch_add(1, std::memory_order_relaxed);
  // Deterministic verdict: hash (seed, site, device, op) through SplitMix64.
  // The op index — not the thread or the wall clock — selects the faulting
  // operations, so a fixed schedule replays the same fault pattern.
  SplitMix64 mix(cfg_.seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(s) + 1) +
                 0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(d) + 1) +
                 0x94d049bb133111ebULL * (static_cast<std::uint64_t>(op) + 1));
  const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  if (u >= rate) return {};

  injected_[s].fetch_add(1, std::memory_order_relaxed);
  injected_total_.fetch_add(1, std::memory_order_relaxed);
  FaultDecision decision;
  decision.fail = true;
  decision.site = site;
  if (site == FaultSite::kernel_timeout)
    decision.penalty_s = cfg_.kernel_timeout_penalty_s;
  else if (site == FaultSite::stream_stall)
    decision.penalty_s = cfg_.stream_stall_penalty_s;
  return decision;
}

bool FaultPlan::device_dead(int device) const noexcept {
  if (device < 0 || device >= kMaxFaultDevices) return false;
  return dead_[static_cast<std::size_t>(device)].load(std::memory_order_acquire);
}

FaultPlan::Stats FaultPlan::stats() const noexcept {
  Stats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  out.injected_total = injected_total_.load(std::memory_order_relaxed);
  out.device_deaths = deaths_.load(std::memory_order_relaxed);
  for (int s = 0; s < kFaultSiteCount; ++s)
    out.injected[static_cast<std::size_t>(s)] =
        injected_[static_cast<std::size_t>(s)].load(std::memory_order_relaxed);
  return out;
}

}  // namespace hspec::util
