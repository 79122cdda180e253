#pragma once
// Open-loop request generator.
//
// Requests are due on a fixed schedule (request i at i / rate after the
// start), whatever the system does. One client thread sends each request
// at its due time and, between sends, polls the outstanding replies. It
// never blocks: it sleeps only while nothing is outstanding and the next
// due time is more than kSpinWindow away, and spins otherwise, so neither
// a send nor a reply waits for the client thread to be woken. A request's
// latency runs from its *due* time to the moment its reply was seen, so a
// stall anywhere (in the service, at its admission gate, or in the client
// itself) is charged to every request it delays. How late each request
// was sent is recorded too.

#include <chrono>
#include <cstddef>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RequestTiming {
  double due_s = 0.0;   ///< scheduled send time, since the loop's start
  double sent_s = 0.0;  ///< when submit() was called
  double done_s = 0.0;  ///< when the reply was seen
  bool ok = false;      ///< finish() reported a correct reply

  /// Latency charged to the request: from due time, not send time.
  double latency_s() const { return done_s - due_s; }
  /// How late the client issued the request.
  double lateness_s() const { return sent_s - due_s; }
};

/// Below this distance to the next due time the client spins instead of
/// sleeping, so a late timer wake-up never delays a send.
inline constexpr std::chrono::microseconds kSpinWindow{500};

/// Run `n` requests at `rate_per_s` from the calling thread. `submit(i)`
/// issues request i and returns a handle; `ready(handle)` says without
/// blocking whether its reply has arrived; `finish(i, handle)` then takes
/// the reply and returns whether it was correct. An exception from
/// `submit` or `finish` marks the request failed. Returns one timing per
/// request, in request order.
template <class Submit, class Ready, class Finish>
std::vector<RequestTiming> run_open_loop(std::size_t n, double rate_per_s,
                                         Submit&& submit, Ready&& ready,
                                         Finish&& finish) {
  using Handle = decltype(submit(std::size_t{0}));
  std::vector<RequestTiming> timings(n);
  std::deque<std::pair<std::size_t, Handle>> pending;

  // A short lead so the first due time is not already in the past.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  auto since_start = [start](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  // Take every reply that has arrived; stamp each as soon as it is seen.
  auto collect = [&] {
    for (auto it = pending.begin(); it != pending.end();) {
      if (!ready(it->second)) {
        ++it;
        continue;
      }
      RequestTiming& t = timings[it->first];
      t.done_s = since_start(Clock::now());
      try {
        t.ok = finish(it->first, it->second);
      } catch (...) {
        t.ok = false;
      }
      it = pending.erase(it);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate_per_s));
    for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
      collect();
      if (pending.empty() && due - now > kSpinWindow)
        std::this_thread::sleep_until(due - kSpinWindow);
    }
    RequestTiming& t = timings[i];
    t.due_s = since_start(due);
    t.sent_s = since_start(Clock::now());
    try {
      pending.emplace_back(i, submit(i));
    } catch (...) {
      // A refused request fails where it stands; the schedule goes on.
      t.done_s = t.sent_s;
      t.ok = false;
    }
  }
  while (!pending.empty()) collect();
  return timings;
}

}  // namespace perfbench
