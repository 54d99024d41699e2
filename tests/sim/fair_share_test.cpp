#include "sim/fair_share.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.h"

namespace dyrs::sim {
namespace {

constexpr Rate kBw = mib_per_sec(100);

FairShareResource::Options opts(double alpha = 0.0) {
  return {.name = "d", .capacity = kBw, .seek_alpha = alpha};
}

TEST(FairShare, SingleFlowFinishesAtExactTime) {
  Simulator sim;
  FairShareResource r(sim, opts());
  SimTime done = -1;
  r.start_flow(mib(100), [&](SimTime t) { done = t; });
  sim.run();
  EXPECT_NEAR(to_seconds(done), 1.0, 1e-5);
  EXPECT_EQ(r.active_flows(), 0);
}

TEST(FairShare, TwoFlowsShareEqually) {
  Simulator sim;
  FairShareResource r(sim, opts());
  SimTime a = -1, b = -1;
  r.start_flow(mib(100), [&](SimTime t) { a = t; });
  r.start_flow(mib(100), [&](SimTime t) { b = t; });
  sim.run();
  // Equal flows sharing 100MiB/s: both finish at 2s.
  EXPECT_NEAR(to_seconds(a), 2.0, 1e-5);
  EXPECT_NEAR(to_seconds(b), 2.0, 1e-5);
}

TEST(FairShare, ShorterFlowFinishesFirstThenRatesRise) {
  Simulator sim;
  FairShareResource r(sim, opts());
  SimTime small = -1, large = -1;
  r.start_flow(mib(50), [&](SimTime t) { small = t; });
  r.start_flow(mib(150), [&](SimTime t) { large = t; });
  sim.run();
  // Shared until small drains: each at 50MiB/s, small done at t=1s having
  // moved 50; large has 100 left, now alone at 100MiB/s → done at t=2s.
  EXPECT_NEAR(to_seconds(small), 1.0, 1e-5);
  EXPECT_NEAR(to_seconds(large), 2.0, 1e-5);
}

TEST(FairShare, LateArrivalSlowsExisting) {
  Simulator sim;
  FairShareResource r(sim, opts());
  SimTime first = -1;
  r.start_flow(mib(100), [&](SimTime t) { first = t; });
  sim.schedule_at(seconds(0.5), [&] { r.start_flow(mib(100), nullptr); });
  sim.run();
  // 0.5s alone (50MiB), then shared at 50MiB/s for remaining 50MiB → 1s
  // more → finishes at 1.5s.
  EXPECT_NEAR(to_seconds(first), 1.5, 1e-4);
}

TEST(FairShare, InterferenceTakesAShareForever) {
  Simulator sim;
  FairShareResource r(sim, opts());
  r.start_interference();
  SimTime done = -1;
  r.start_flow(mib(100), [&](SimTime t) { done = t; });
  sim.run_until(seconds(10));
  // Flow gets half the bandwidth → 2s.
  EXPECT_NEAR(to_seconds(done), 2.0, 1e-4);
  EXPECT_EQ(r.active_flows(), 1);
  EXPECT_EQ(r.active_interference_flows(), 1);
}

TEST(FairShare, SeekPenaltyReducesAggregate) {
  Simulator sim;
  FairShareResource r(sim, opts(/*alpha=*/0.5));
  SimTime a = -1, b = -1;
  r.start_flow(mib(75), [&](SimTime t) { a = t; });
  r.start_flow(mib(75), [&](SimTime t) { b = t; });
  sim.run();
  // n=2 → aggregate = 100/(1+0.5) = 66.67 MiB/s → each 33.3 MiB/s → 2.25s.
  EXPECT_NEAR(to_seconds(a), 2.25, 1e-4);
  EXPECT_NEAR(to_seconds(b), 2.25, 1e-4);
}

TEST(FairShare, SerializedBeatsConcurrentWithSeekPenalty) {
  // The design rationale for DYRS serializing migrations (§III-B): with a
  // seek penalty, running two block reads concurrently takes longer in
  // aggregate than back-to-back.
  const Bytes block = mib(100);

  // Concurrent.
  Simulator sim1;
  FairShareResource r1(sim1, opts(/*alpha=*/0.3));
  SimTime last_concurrent = -1;
  r1.start_flow(block, nullptr);
  r1.start_flow(block, [&](SimTime t) { last_concurrent = t; });
  sim1.run();

  // Serialized.
  Simulator sim2;
  FairShareResource r2(sim2, opts(/*alpha=*/0.3));
  SimTime last_serial = -1;
  r2.start_flow(block, [&](SimTime) {
    r2.start_flow(block, [&](SimTime t2) { last_serial = t2; });
  });
  sim2.run();

  EXPECT_GT(last_concurrent, last_serial);
  EXPECT_NEAR(to_seconds(last_serial), 2.0, 1e-4);
  EXPECT_NEAR(to_seconds(last_concurrent), 2.6, 1e-3);  // 200/(100/1.3)
}

TEST(FairShare, CancelStopsCallbackAndFreesShare) {
  Simulator sim;
  FairShareResource r(sim, opts());
  bool cancelled_fired = false;
  SimTime done = -1;
  auto id = r.start_flow(mib(100), [&](SimTime) { cancelled_fired = true; });
  r.start_flow(mib(100), [&](SimTime t) { done = t; });
  sim.schedule_at(seconds(1), [&] { r.cancel_flow(id); });
  sim.run();
  EXPECT_FALSE(cancelled_fired);
  // Survivor: 1s shared (50MiB) + 50MiB alone (0.5s) → 1.5s.
  EXPECT_NEAR(to_seconds(done), 1.5, 1e-4);
}

TEST(FairShare, CancelUnknownIdIsNoop) {
  Simulator sim;
  FairShareResource r(sim, opts());
  r.cancel_flow(12345);
  EXPECT_EQ(r.active_flows(), 0);
}

TEST(FairShare, CapacityChangeMidFlow) {
  Simulator sim;
  FairShareResource r(sim, opts());
  SimTime done = -1;
  r.start_flow(mib(100), [&](SimTime t) { done = t; });
  sim.schedule_at(seconds(0.5), [&] { r.set_capacity(mib_per_sec(50)); });
  sim.run();
  // 0.5s at 100 (50MiB) + 50MiB at 50MiB/s (1s) → 1.5s.
  EXPECT_NEAR(to_seconds(done), 1.5, 1e-4);
}

TEST(FairShare, ZeroCapacityStallsUntilRestored) {
  Simulator sim;
  FairShareResource r(sim, opts());
  SimTime done = -1;
  r.start_flow(mib(100), [&](SimTime t) { done = t; });
  sim.schedule_at(seconds(0.5), [&] { r.set_capacity(0.0); });
  sim.schedule_at(seconds(5), [&] { r.set_capacity(kBw); });
  sim.run();
  // 50MiB before stall; stalled 4.5s; remaining 50MiB takes 0.5s → 5.5s.
  EXPECT_NEAR(to_seconds(done), 5.5, 1e-4);
}

TEST(FairShare, RemainingBytesTracksProgress) {
  Simulator sim;
  FairShareResource r(sim, opts());
  auto id = r.start_flow(mib(100), nullptr);
  sim.run_until(seconds(0.25));
  EXPECT_NEAR(to_mib(r.remaining_bytes(id)), 75.0, 0.01);
  sim.run();
  EXPECT_EQ(r.remaining_bytes(id), 0);
}

// The query computes the residual without touching the resource: no
// advance, no rescheduled completion (so no dead queue entry and no fresh
// seq), and an equal-time event scheduled earlier still fires after the
// completion it was scheduled behind.
TEST(FairShare, RemainingBytesQueryLeavesScheduleAlone) {
  Simulator sim;
  FairShareResource r(sim, opts());
  std::vector<std::string> order;
  auto id = r.start_flow(mib(100), [&](SimTime) { order.push_back("flow"); });
  sim.schedule_at(seconds(1), [&] { order.push_back("other"); });
  sim.run_until(seconds(0.25));
  const std::size_t skipped = sim.cancelled_skipped();
  EXPECT_NEAR(to_mib(r.remaining_bytes(id)), 75.0, 0.01);
  EXPECT_NEAR(to_mib(r.remaining_bytes(id)), 75.0, 0.01);
  sim.run();
  EXPECT_EQ(sim.cancelled_skipped(), skipped);
  EXPECT_EQ(sim.now(), seconds(1));
  EXPECT_EQ(order, (std::vector<std::string>{"flow", "other"}));
}

TEST(FairShare, AccountingTotals) {
  Simulator sim;
  FairShareResource r(sim, opts());
  r.start_flow(mib(60), nullptr);
  r.start_flow(mib(40), nullptr);
  sim.run();
  EXPECT_NEAR(r.total_bytes_transferred(), static_cast<double>(mib(100)), 1024.0);
  // Shared 50MiB/s until t=0.8 (40MiB flow drains), then the 60MiB flow's
  // last 20MiB run alone at 100MiB/s → busy until t=1.0.
  EXPECT_NEAR(r.busy_seconds(), 1.0, 0.01);
}

TEST(FairShare, CompletionCallbackCanStartNewFlow) {
  Simulator sim;
  FairShareResource r(sim, opts());
  std::vector<double> completion_s;
  std::function<void(SimTime)> chain = [&](SimTime t) {
    completion_s.push_back(to_seconds(t));
    if (completion_s.size() < 3) r.start_flow(mib(50), chain);
  };
  r.start_flow(mib(50), chain);
  sim.run();
  ASSERT_EQ(completion_s.size(), 3u);
  EXPECT_NEAR(completion_s[0], 0.5, 1e-4);
  EXPECT_NEAR(completion_s[1], 1.0, 1e-4);
  EXPECT_NEAR(completion_s[2], 1.5, 1e-4);
}

TEST(FairShare, UnloadedDuration) {
  Simulator sim;
  FairShareResource r(sim, opts());
  EXPECT_NEAR(to_seconds(r.unloaded_duration(mib(100))), 1.0, 1e-6);
  EXPECT_EQ(r.unloaded_duration(0), 0);
}

TEST(FairShare, ManyFlowsDrainCompletely) {
  Simulator sim;
  FairShareResource r(sim, opts(0.1));
  int completed = 0;
  for (int i = 1; i <= 50; ++i) {
    r.start_flow(mib(i), [&](SimTime) { ++completed; });
  }
  sim.run();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(r.active_flows(), 0);
}

}  // namespace
}  // namespace dyrs::sim
