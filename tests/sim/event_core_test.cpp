// Event-core oracle and bounded-state checks.
//
// Seeded random programs drive the Simulator and a reference queue (a
// std::set ordered by (time, seq)) through the same operations: one-shots,
// recurrences, cancels of self and of others from inside callbacks, handles
// kept after their events fire, bursts that grow the slot table under a
// running callback, and run_until boundaries. Both must fire the same
// events in the same order at the same now(), and answer pending() alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "sim/fair_share.h"
#include "sim/simulator.h"

namespace dyrs::sim {
namespace {

/// Reference semantics of the event core. A one-shot takes its seq when
/// scheduled; a recurrence's first occurrence takes one in every() and each
/// later occurrence one when the previous callback returns. A cancelled
/// event never runs; a cancel from inside a recurrence stops its re-arm.
/// An event is pending from its scheduling until its last callback returns
/// or it is cancelled.
class RefQueue {
 public:
  using Handle = std::size_t;

  SimTime now() const { return now_; }

  Handle schedule_at(SimTime t, std::function<void()> fn) { return add(t, 0, std::move(fn)); }
  Handle every(SimDuration p, std::function<void()> fn) { return add(now_ + p, p, std::move(fn)); }

  void cancel(Handle h) {
    if (!events_[h].done) events_[h].cancelled = true;
  }
  bool pending(Handle h) const { return !events_[h].done && !events_[h].cancelled; }

  void run_until(SimTime t) {
    for (;;) {
      drop_cancelled();
      if (queue_.empty() || std::get<0>(*queue_.begin()) > t) break;
      const auto [time, seq, h] = *queue_.begin();
      queue_.erase(queue_.begin());
      now_ = time;
      std::function<void()> fn = events_[h].fn;
      fn();
      Event& e = events_[h];
      if (e.period > 0 && !e.cancelled) {
        queue_.emplace(now_ + e.period, next_seq_++, h);
      } else {
        e.done = true;
      }
    }
    now_ = t;
  }

  bool idle() {
    drop_cancelled();
    return queue_.empty();
  }

 private:
  struct Event {
    std::function<void()> fn;
    SimDuration period = 0;
    bool cancelled = false;
    bool done = false;
  };

  Handle add(SimTime t, SimDuration period, std::function<void()> fn) {
    events_.push_back({std::move(fn), period});
    queue_.emplace(t, next_seq_++, events_.size() - 1);
    return events_.size() - 1;
  }

  void drop_cancelled() {
    while (!queue_.empty() && events_[std::get<2>(*queue_.begin())].cancelled) {
      events_[std::get<2>(*queue_.begin())].done = true;
      queue_.erase(queue_.begin());
    }
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> events_;
  std::set<std::tuple<SimTime, std::uint64_t, Handle>> queue_;
};

/// The Simulator behind RefQueue's interface: handles are indices into a
/// vector of EventHandles the program keeps for its whole run.
class SimQueue {
 public:
  using Handle = std::size_t;

  SimTime now() const { return sim_.now(); }
  Handle schedule_at(SimTime t, std::function<void()> fn) {
    handles_.push_back(sim_.schedule_at(t, std::move(fn)));
    return handles_.size() - 1;
  }
  Handle every(SimDuration p, std::function<void()> fn) {
    handles_.push_back(sim_.every(p, std::move(fn)));
    return handles_.size() - 1;
  }
  void cancel(Handle h) { handles_[h].cancel(); }
  bool pending(Handle h) const { return handles_[h].pending(); }
  void run_until(SimTime t) { sim_.run_until(t); }
  bool idle() { return sim_.idle(); }

 private:
  Simulator sim_;
  std::vector<EventHandle> handles_;
};

/// One seeded program. Each firing logs "id@now", then, drawing from the
/// program's own generator: schedules 0-2 one-shots at 0-40 µs (0 makes
/// same-time ties), sometimes a recurrence, cancels self or a random
/// handle (fired ones too), and logs pending() of a few random handles.
/// One firing per burst program schedules 1,000 events at once.
template <typename Q>
std::vector<std::string> run_program(std::uint64_t seed) {
  Q q;
  Rng rng(seed);
  std::vector<std::string> log;
  std::size_t handles = 0;
  constexpr std::size_t kBudget = 2500;
  bool burst = seed % 8 == 0;

  std::function<void(std::size_t)> fire;
  auto schedule = [&](SimTime t) {
    const std::size_t id = handles++;
    q.schedule_at(t, [&fire, id] { fire(id); });
  };
  auto recur = [&](SimDuration p) {
    const std::size_t id = handles++;
    q.every(p, [&fire, id] { fire(id); });
  };
  fire = [&](std::size_t id) {
    log.push_back(std::to_string(id) + "@" + std::to_string(q.now()));
    if (handles < kBudget) {
      for (auto n = rng.uniform_int(0, 2); n > 0; --n) schedule(q.now() + rng.uniform_int(0, 40));
      if (rng.bernoulli(0.05)) recur(rng.uniform_int(1, 30));
    }
    if (burst && handles < kBudget) {
      burst = false;
      for (int i = 0; i < 1000; ++i) schedule(q.now() + rng.uniform_int(0, 200));
    }
    if (rng.bernoulli(0.1)) q.cancel(id);
    auto any = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(handles) - 1));
    };
    if (rng.bernoulli(0.3)) q.cancel(any());
    for (int i = 0; i < 2; ++i) {
      const std::size_t h = any();
      std::string entry = "p";
      entry += std::to_string(h) + "=" + std::to_string(q.pending(h));
      log.push_back(entry);
    }
  };

  for (int i = 0; i < 20; ++i) schedule(rng.uniform_int(0, 100));
  for (int i = 0; i < 3; ++i) recur(rng.uniform_int(1, 50));
  // run_until boundaries fall between and on event times.
  for (SimTime t = 0; t < 3000; t += rng.uniform_int(0, 150)) {
    q.run_until(t);
    log.push_back("until " + std::to_string(t) + " now " + std::to_string(q.now()));
  }
  for (std::size_t h = 0; h < handles; ++h) {
    log.push_back("end p" + std::to_string(h) + "=" + std::to_string(q.pending(h)));
    q.cancel(h);
  }
  log.push_back("idle " + std::to_string(q.idle()));
  return log;
}

TEST(EventCore, RandomProgramsMatchReferenceQueue) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::vector<std::string> want = run_program<RefQueue>(seed);
    const std::vector<std::string> got = run_program<SimQueue>(seed);
    ASSERT_GT(want.size(), 100u) << "seed " << seed;
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

// A released slot is reused by the next event; the old handle's generation
// no longer matches, so it can neither cancel nor observe the new event.
TEST(EventCore, StaleHandleDoesNotCancelSlotReuser) {
  Simulator sim;
  EventHandle first = sim.schedule_after(1, [] {});
  sim.run();
  bool ran = false;
  EventHandle second = sim.schedule_after(1, [&] { ran = true; });
  ASSERT_EQ(sim.slot_count(), 1u);  // the slot was recycled
  EXPECT_FALSE(first.pending());
  first.cancel();
  EXPECT_TRUE(second.pending());
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.cancelled_skipped(), 0u);
}

// The same hazard for a recurrence cancelled in its own callback: its slot
// is released at once and the next schedule reuses it.
TEST(EventCore, StaleRecurrenceHandleDoesNotCancelSlotReuser) {
  Simulator sim;
  EventHandle timer;
  int fired = 0;
  timer = sim.every(10, [&] {
    if (++fired == 2) timer.cancel();
  });
  sim.run();
  bool ran = false;
  EventHandle next = sim.schedule_after(5, [&] { ran = true; });
  ASSERT_EQ(sim.slot_count(), 1u);
  timer.cancel();
  EXPECT_FALSE(timer.pending());
  EXPECT_TRUE(next.pending());
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(fired, 2);
}

TEST(EventCore, RecurrenceReArmsItsOwnSlot) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.every(milliseconds(1), [&] { ++fired; });
  sim.run_until(seconds(10));
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(sim.slot_count(), 1u);
  EXPECT_TRUE(h.pending());
}

TEST(EventCore, OneShotChurnKeepsTableAtPeakLiveSize) {
  Simulator sim;
  Rng rng(7);
  constexpr std::size_t kEvents = 1'000'000;
  std::size_t scheduled = 0;
  std::size_t live = 0;  // scheduled and not yet returned from its callback
  std::size_t peak = 0;
  std::size_t fired = 0;
  auto schedule = [&](const std::function<void()>& fn) {
    ++scheduled;
    peak = std::max(peak, ++live);
    sim.schedule_after(rng.uniform_int(0, 50), fn);
  };
  std::function<void()> hop = [&] {
    ++fired;
    if (scheduled < kEvents) schedule(hop);  // while this one is still live
    --live;
  };
  for (int chain = 0; chain < 15; ++chain) schedule(hop);
  sim.run();
  EXPECT_EQ(fired, kEvents);
  EXPECT_LE(peak, 16u);
  EXPECT_EQ(sim.slot_count(), peak);
}

// Every fair-share mutation cancels at most the one pending completion
// tick, so each adds at most one dropped entry; a remaining_bytes() query
// adds none.
TEST(EventCore, FairShareMutationSkipsAtMostOneEntry) {
  Simulator sim;
  FairShareResource r(sim, {.name = "d", .capacity = mib_per_sec(100), .seek_alpha = 0.1});
  Rng rng(11);
  std::vector<FairShareResource::FlowId> ids;
  std::size_t mutations = 0;
  std::size_t queries = 0;  // of flows still in flight
  for (int i = 0; i < 400; ++i) {
    sim.run_until(sim.now() + rng.uniform_int(0, milliseconds(40)));
    for (auto id : ids) queries += r.remaining_bytes(id) > 0 ? 1 : 0;
    switch (rng.uniform_int(0, 3)) {
      case 0: ids.push_back(r.start_flow(mib(1) * rng.uniform_int(1, 8), nullptr)); break;
      case 1: ids.push_back(r.start_interference()); break;
      case 2:
        if (!ids.empty()) {
          r.cancel_flow(ids[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))]);
        }
        break;
      default: r.set_capacity(mib_per_sec(50) * static_cast<double>(rng.uniform_int(1, 4))); break;
    }
    ++mutations;
  }
  for (auto id : ids) r.cancel_flow(id);
  mutations += ids.size();
  sim.run();
  EXPECT_GT(queries, 0u);
  EXPECT_GT(sim.cancelled_skipped(), 0u);
  EXPECT_LE(sim.cancelled_skipped(), mutations);
}

}  // namespace
}  // namespace dyrs::sim
