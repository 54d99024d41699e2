#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/units.h"

namespace dyrs::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator sim;
  SimTime fired = -1;
  sim.schedule_after(seconds(2), [&] {
    sim.schedule_after(seconds(3), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, seconds(5));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(seconds(1), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0, [] {}), CheckError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto h = sim.schedule_after(seconds(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsSafe) {
  Simulator sim;
  auto h = sim.schedule_after(seconds(1), [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no effect, no crash
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(5), [&] { ++fired; });
  sim.run_until(seconds(3));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(3));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(seconds(3), [&] { ran = true; });
  sim.run_until(seconds(3));
  EXPECT_TRUE(ran);
}

TEST(Simulator, EveryRepeatsUntilCancelled) {
  Simulator sim;
  int count = 0;
  auto h = sim.every(seconds(1), [&] { ++count; });
  sim.run_until(seconds(5) + 1);
  EXPECT_EQ(count, 5);
  h.cancel();
  sim.run_until(seconds(10));
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, EveryCancelFromInsideCallback) {
  Simulator sim;
  int count = 0;
  EventHandle h;
  h = sim.every(seconds(1), [&] {
    if (++count == 3) h.cancel();
  });
  sim.run();
  EXPECT_EQ(count, 3);
}

// A recurrence owns its callback only through its queued event, so what the
// callback captured is freed once the last occurrence pops after a cancel.
TEST(Simulator, EveryFreesCallbackAfterCancel) {
  auto sentinel = std::make_shared<int>(0);
  Simulator sim;
  auto h = sim.every(seconds(1), [sentinel] {});
  sim.run_until(seconds(2) + 1);
  EXPECT_GT(sentinel.use_count(), 1);
  h.cancel();
  sim.run();  // the queued occurrence pops and does not re-arm
  EXPECT_EQ(sentinel.use_count(), 1);
}

// ... and when the Simulator is destroyed with an occurrence still queued.
TEST(Simulator, EveryFreesCallbackWithSimulator) {
  auto sentinel = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.every(seconds(1), [sentinel] {});
    sim.run_until(seconds(2) + 1);
    EXPECT_GT(sentinel.use_count(), 1);
  }
  EXPECT_EQ(sentinel.use_count(), 1);
}

// A cancel takes the recurrence's queued occurrence out of the runnable
// set at once: it moves neither next_event_time() nor now(), and is not
// counted as an executed event.
TEST(Simulator, CancelledRecurrenceIsNotRunnable) {
  Simulator sim;
  int runs = 0;
  EventHandle h = sim.every(seconds(1), [&] { ++runs; });
  sim.schedule_at(seconds(5), [] {});
  h.cancel();
  EXPECT_EQ(sim.next_event_time(), seconds(5));
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), seconds(5));
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(runs, 0);

  Simulator lone;
  EventHandle timer = lone.every(seconds(1), [&] { ++runs; });
  lone.run_until(seconds(1));
  EXPECT_EQ(runs, 1);
  timer.cancel();
  EXPECT_TRUE(lone.idle());
  EXPECT_EQ(lone.next_event_time(), std::nullopt);
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_after(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ReentrantSchedulingFromEvents) {
  // An event chain that schedules its successor; exercises the common
  // heartbeat pattern.
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) sim.schedule_after(milliseconds(10), hop);
  };
  sim.schedule_after(0, hop);
  sim.run();
  EXPECT_EQ(hops, 100);
  EXPECT_EQ(sim.now(), milliseconds(10) * 99);
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

}  // namespace
}  // namespace dyrs::sim
