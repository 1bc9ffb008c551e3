// Quiescence: one runtime-wide count of runners with work in hand.
//
// A runner is counted from the moment work is handed to it until its
// thread parks with no eligible head, no burst staged and no control
// queued. Handing work to a parked runner counts it back in, under that
// runner's lock, before the hand-off returns. Local routing is synchronous,
// so a downstream runner is counted before the upstream runner that fed it
// parks: one read of zero means the runtime is quiet. Drain and replay
// catch-up (§II.F) wait for that event; nothing sleeps between checks.
//
// The hop path pays one atomic add or sub; the mutex and condition
// variable are touched only when the count reaches zero while someone
// waits. The count is the `tart_runtime_active_runners` gauge itself.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "obs/registry.h"

namespace tart::core {

class Quiescence {
 public:
  explicit Quiescence(obs::Registry& registry)
      : active_(registry.gauge(
            "tart_runtime_active_runners",
            "Runners with work in hand: running a burst, blocked in a call, "
            "or handed work since they last parked")) {}

  /// A runner started, was handed work while parked, or woke on its timer.
  void enter() { active_.add(1); }

  /// A runner parked, stopped or crashed. Reaching zero wakes the waiters.
  void leave() {
    if (active_.add(-1) != 0 || waiters_.load() == 0) return;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      ++generation_;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::int64_t active() const { return active_.value(); }

  /// Blocks until `settled()` holds or `deadline` passes, checking it at
  /// once and again each time the count returns to zero. `settled` runs
  /// with no lock of this class held: a parking runner takes that lock
  /// while it holds its own.
  template <typename Pred>
  bool wait_until(std::chrono::steady_clock::time_point deadline,
                  Pred settled) {
    // Registered before the first check: a runner reaching zero after it
    // either sees this waiter or is seen by the check.
    waiters_.fetch_add(1);
    std::unique_lock<std::mutex> lk(mu_);
    bool ok = false;
    for (bool woken = true; woken && !ok;) {
      const std::uint64_t seen = generation_;
      lk.unlock();
      ok = settled();
      lk.lock();
      if (!ok)
        woken = cv_.wait_until(lk, deadline,
                               [&] { return generation_ != seen; });
    }
    waiters_.fetch_sub(1);
    return ok;
  }

 private:
  obs::Gauge& active_;
  std::atomic<int> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;  // guarded by mu_
};

}  // namespace tart::core
