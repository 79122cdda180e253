#include "service/service.h"

#include <algorithm>
#include <map>
#include <utility>

namespace hspec::service {

namespace {

/// Raise an atomic maximum (relaxed: telemetry, not synchronization).
void raise_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t seen = target.load(std::memory_order_relaxed);
  while (seen < value && !target.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed,
                             std::memory_order_relaxed)) {
  }
}

void fill_spectrum(apec::Spectrum& spectrum, const std::vector<double>& bins) {
  for (std::size_t b = 0; b < bins.size(); ++b) spectrum[b] = bins[b];
}

}  // namespace

SpectralService::SpectralService(const apec::SpectrumCalculator& calculator,
                                 ServiceConfig config)
    : calc_(&calculator),
      config_(config),
      executor_(calculator, config.hybrid),
      cache_(config.cache) {
  if (config_.max_pending_points < 1)
    throw std::invalid_argument(
        "SpectralService: max_pending_points must be >= 1");
  if (config_.max_batch_points < 1)
    throw std::invalid_argument(
        "SpectralService: max_batch_points must be >= 1");
  if (config_.autostart) start();
}

SpectralService::~SpectralService() { stop(); }

void SpectralService::start() {
  util::MutexLock lock(mu_);
  if (running_ || stop_) return;  // a stopped service stays stopped
  running_ = true;
  worker_ = std::thread([this] { worker_loop(); });
}

void SpectralService::stop() {
  std::thread to_join;
  std::deque<std::unique_ptr<Request>> orphans;
  {
    util::MutexLock lock(mu_);
    stop_ = true;
    if (running_) {
      to_join = std::move(worker_);
      running_ = false;
    }
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (to_join.joinable()) to_join.join();
  {
    // With a worker the drain loop leaves nothing behind; only requests
    // queued on a never-started service land here.
    util::MutexLock lock(mu_);
    orphans.swap(queue_);
    pending_points_ = 0;
  }
  for (auto& req : orphans)
    req->promise.set_exception(std::make_exception_ptr(ServiceStopped()));
}

SpectralService::Ticket SpectralService::submit(
    std::vector<apec::GridPoint> points) {
  // O(1) per point, before admission: a point the executor would refuse is
  // refused for this request alone, never for a group it would have been
  // coalesced into.
  for (const apec::GridPoint& point : points) apec::validate_point(point);
  auto req = std::make_unique<Request>();
  req->points = std::move(points);
  req->submitted = std::chrono::steady_clock::now();
  Ticket ticket(req->promise.get_future().share());

  const std::size_t n = req->points.size();
  if (n == 0) {  // trivially complete; never visits the queue
    requests_submitted_.fetch_add(1, std::memory_order_relaxed);
    requests_completed_.fetch_add(1, std::memory_order_relaxed);
    req->promise.set_value(ServiceReply{});
    return ticket;
  }

  {
    util::MutexLock lock(mu_);
    if (stop_) throw ServiceStopped();
    // Admission gate. An oversized request (n > the whole bound) is
    // admitted once the queue is empty — it could never fit otherwise.
    if (config_.admission == ServiceConfig::Admission::reject) {
      if (pending_points_ > 0 &&
          pending_points_ + n > config_.max_pending_points) {
        requests_rejected_.fetch_add(1, std::memory_order_relaxed);
        throw ServiceOverloaded();
      }
    } else {
      while (pending_points_ > 0 &&
             pending_points_ + n > config_.max_pending_points && !stop_)
        space_cv_.wait(lock);
      if (stop_) throw ServiceStopped();
    }
    pending_points_ += n;
    queue_.push_back(std::move(req));
  }
  requests_submitted_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_one();
  return ticket;
}

void SpectralService::worker_loop() {
  for (;;) {
    std::vector<std::unique_ptr<Request>> group;
    {
      util::MutexLock lock(mu_);
      while (queue_.empty() && !stop_) work_cv_.wait(lock);
      if (queue_.empty()) return;  // stop_ set and fully drained
      group = take_group_locked();
    }
    space_cv_.notify_all();  // the gate may have room again
    dispatch(std::move(group));
  }
}

std::vector<std::unique_ptr<SpectralService::Request>>
SpectralService::take_group_locked() {
  // Coalesce whole requests until the batch cap: everything queued right
  // now rides one executor batch (cross-request sharing), capped by
  // max_batch_points so one giant survey cannot starve the gate.
  std::vector<std::unique_ptr<Request>> group;
  std::size_t points_taken = 0;
  while (!queue_.empty()) {
    const std::size_t n = queue_.front()->points.size();
    if (!group.empty() && points_taken + n > config_.max_batch_points) break;
    points_taken += n;
    pending_points_ -= n;
    group.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return group;
}

void SpectralService::dispatch(std::vector<std::unique_ptr<Request>> group) {
  const auto dispatched = std::chrono::steady_clock::now();

  // One batch slot per *distinct quantized point* missing from the cache;
  // consumers fan each slot back out to every (request, point) that asked
  // for it. Dedup across requests means ten clients asking for the same
  // spectrum cost one computation even on a cold cache.
  struct Consumer {
    std::size_t request;
    std::size_t point;
  };
  std::vector<apec::GridPoint> batch_points;
  std::vector<std::vector<Consumer>> consumers;
  std::map<GridKey, std::size_t> slot_of;

  std::vector<ServiceReply> replies(group.size());
  for (std::size_t r = 0; r < group.size(); ++r) {
    Request& req = *group[r];
    ServiceReply& reply = replies[r];
    reply.stats.queue_wait_s =
        std::chrono::duration<double>(dispatched - req.submitted).count();
    reply.spectra.reserve(req.points.size());
    for (std::size_t i = 0; i < req.points.size(); ++i) {
      const apec::GridPoint& point = req.points[i];
      reply.spectra.emplace_back(calc_->grid());
      const GridCache::Lookup found = cache_.lookup(point);
      if (found.bins != nullptr) {
        fill_spectrum(reply.spectra.back(), *found.bins);
        if (found.interpolated)
          ++reply.stats.cache_interpolated;
        else
          ++reply.stats.cache_hits;
        continue;
      }
      ++reply.stats.cache_misses;
      const auto [slot_it, fresh] =
          slot_of.emplace(cache_.key_of(point), batch_points.size());
      if (fresh) {
        batch_points.push_back(point);
        consumers.emplace_back();
      }
      consumers[slot_it->second].push_back({r, i});
    }
  }

  if (!batch_points.empty()) {
    core::HybridResult result;
    try {
      result = executor_.run_batch(batch_points);
    } catch (...) {
      // The whole batch failed: every request in the group learns why.
      for (auto& req : group)
        req->promise.set_exception(std::current_exception());
      return;
    }

    std::size_t contributing = 0;
    for (const ServiceReply& reply : replies)
      if (reply.stats.cache_misses > 0) ++contributing;
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (contributing >= 2)
      coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
    raise_max(max_batch_points_, batch_points.size());
    raise_max(max_batch_requests_, contributing);

    for (std::size_t s = 0; s < batch_points.size(); ++s) {
      auto bins =
          std::make_shared<std::vector<double>>(result.spectra[s].values());
      cache_.insert(batch_points[s], bins);
      for (const Consumer& c : consumers[s])
        fill_spectrum(replies[c.request].spectra[c.point], *bins);
    }
    for (ServiceReply& reply : replies) {
      if (reply.stats.cache_misses == 0) continue;
      reply.stats.batch_points = batch_points.size();
      reply.stats.batch_requests = contributing;
      reply.stats.faults = result.faults;
      reply.stats.device_health = result.device_health;
      reply.stats.sched = result.sched;
    }
  }

  for (std::size_t r = 0; r < group.size(); ++r) {
    // Count before fulfilling: a client observing its ticket ready must
    // also observe itself counted.
    requests_completed_.fetch_add(1, std::memory_order_relaxed);
    group[r]->promise.set_value(std::move(replies[r]));
  }
}

SpectralService::Telemetry SpectralService::telemetry() const {
  Telemetry t;
  t.requests_submitted = requests_submitted_.load(std::memory_order_relaxed);
  t.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  t.requests_completed = requests_completed_.load(std::memory_order_relaxed);
  t.batches = batches_.load(std::memory_order_relaxed);
  t.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  t.max_batch_points = max_batch_points_.load(std::memory_order_relaxed);
  t.max_batch_requests = max_batch_requests_.load(std::memory_order_relaxed);
  return t;
}

}  // namespace hspec::service
