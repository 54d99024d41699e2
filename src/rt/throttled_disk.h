// Token-bucket throttled "disk" for the real-time runtime.
//
// The real-time runtime (rt::) runs the DYRS master/slave protocol with
// actual threads instead of simulated time. A read blocks the calling
// thread for its token time, bytes/rate, like a synchronous pread from a
// device with the given bandwidth. One call may carry several items served
// FIFO (the slave's drain batch), and it never returns before the token time
// of what it served has passed. The rate can be changed at any time
// (interference), affecting reads in progress proportionally: a read
// re-checks the rate in small slices, so a slowdown mid-read lengthens the
// remainder, which is exactly the behaviour the overdue-estimate correction
// reacts to.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/check.h"
#include "common/units.h"

namespace dyrs::rt {

class ThrottledDisk {
 public:
  /// `bandwidth` in bytes per wall-clock second.
  explicit ThrottledDisk(Rate bandwidth) : nominal_(bandwidth), bandwidth_(bandwidth) {
    DYRS_CHECK(bandwidth > 0);
  }

  /// Effective rate: nominal * degradation.
  Rate bandwidth() const { return bandwidth_.load(std::memory_order_relaxed); }

  /// Reconfigures the device's nominal rate; any active degradation factor
  /// keeps applying multiplicatively, so a fault-injection episode can
  /// never clobber a reconfigured nominal rate (or vice versa).
  void set_nominal_bandwidth(Rate bandwidth) {
    DYRS_CHECK(bandwidth > 0);
    nominal_.store(bandwidth, std::memory_order_relaxed);
    update_effective();
  }

  /// Multiplicative bandwidth degradation episode (fault injection): the
  /// effective rate becomes nominal * factor until restored with 1.0.
  void set_degradation(double factor) {
    DYRS_CHECK(factor > 0);
    degradation_.store(factor, std::memory_order_relaxed);
    update_effective();
  }

  double degradation() const { return degradation_.load(std::memory_order_relaxed); }
  Rate nominal_bandwidth() const { return nominal_.load(std::memory_order_relaxed); }

  /// Paced read of `items`, served FIFO from one token bucket: item i
  /// costs items[i] / bandwidth seconds of token time, charged in slices of
  /// at most 1 ms of work so a bandwidth change or a cancellation bites
  /// within a slice. This is the disk's only read path: the rt slave's
  /// drain cycle passes its whole batch, the flash spill a single item.
  ///
  /// Contract: a call never returns before its start time plus the summed
  /// token time of the slices it consumed, so a caller that reports what it
  /// served after the call returns never reports a block early. Inside a
  /// call the bucket sleeps only once it is at least one slice ahead of the
  /// wall clock, so many small items share a sleep; whatever lead is left is
  /// slept out at return with `sleep_until` on the deadline itself. No lead
  /// carries into the next call.
  ///
  /// Short waits are honoured: the first call on a thread sets that
  /// thread's timer slack to 1 ns (Linux). Under the default 50 us slack
  /// the 2 us wait of a 4 KiB block at 2 GiB/s takes ~57 us, at 1 ns ~5.5 us
  /// (p50 of 2,000 sleeps, 4-vCPU Xeon KVM guest). It sleeps rather than
  /// spins: when every thread shares one CPU, as in perfbench's rt_backlog,
  /// a spinning reader would starve the master it waits on.
  ///
  ///  * `aborted()` is polled per slice; true (slave crash / stop) ends the
  ///    call: no further item starts.
  ///  * `on_slice` runs once per slice (the rt slave's heartbeat).
  ///  * `on_start(i)` fires before item i consumes its first token;
  ///    returning false skips the item (cancelled while batched).
  ///  * `item_cancelled()` is polled per slice and drops the remainder of
  ///    the *current* item only; its on_done never fires and the call
  ///    moves on.
  ///  * `on_done(i, service_s)` fires when item i is fully served.
  ///    `service_s` is its token time — the duration a bandwidth estimator
  ///    should learn. (Wall time would count host scheduling and undercount
  ///    items served inside an un-slept lead.)
  ///
  /// Returns the number of items fully served.
  std::size_t read(const std::vector<Bytes>& items,
                   const std::function<bool()>& aborted = nullptr,
                   const std::function<void()>& on_slice = nullptr,
                   const std::function<bool(std::size_t)>& on_start = nullptr,
                   const std::function<bool()>& item_cancelled = nullptr,
                   const std::function<void(std::size_t, double)>& on_done = nullptr) {
    using clock = std::chrono::steady_clock;
    honour_short_waits();
    const auto t0 = clock::now();
    double token_us = 0;  // token time consumed by this call so far
    const auto deadline = [&] {
      return t0 + std::chrono::ceil<clock::duration>(
                      std::chrono::duration<double, std::micro>(token_us));
    };
    std::size_t served = 0;
    for (std::size_t i = 0; i < items.size() && !(aborted && aborted()); ++i) {
      if (on_start && !on_start(i)) continue;
      DYRS_CHECK(items[i] > 0);
      double remaining = static_cast<double>(items[i]);
      double item_us = 0;
      while (remaining > 0) {
        if ((aborted && aborted()) || (item_cancelled && item_cancelled())) break;
        if (on_slice) on_slice();
        const double rate = bandwidth_.load(std::memory_order_relaxed);
        const double slice_bytes = std::min(remaining, rate / 1000.0);
        const double slice_us = slice_bytes / rate * 1e6;
        token_us += slice_us;
        item_us += slice_us;
        remaining -= slice_bytes;
        const auto due = deadline();
        if (due - clock::now() >= std::chrono::milliseconds(1)) std::this_thread::sleep_until(due);
      }
      if (remaining > 0) continue;  // cancelled or aborted mid-item
      if (on_done) on_done(i, item_us / 1e6);
      ++served;
    }
    std::this_thread::sleep_until(deadline());
    return served;
  }

 private:
  void update_effective() {
    bandwidth_.store(nominal_.load(std::memory_order_relaxed) *
                         degradation_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }

  std::atomic<Rate> nominal_;
  std::atomic<double> degradation_{1.0};
  std::atomic<Rate> bandwidth_;  // cached nominal * degradation

  /// Sets the calling thread's timer slack to 1 ns, once per thread.
  static void honour_short_waits() {
#ifdef __linux__
    thread_local bool done = false;
    if (!done) {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      done = true;
    }
#endif
  }
};

}  // namespace dyrs::rt
