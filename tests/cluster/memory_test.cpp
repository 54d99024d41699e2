#include "cluster/memory.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace dyrs::cluster {
namespace {

TEST(Memory, PinWithinCapacity) {
  sim::Simulator sim;
  Memory mem(sim, {.capacity = gib(1)});
  EXPECT_TRUE(mem.pin(mib(512)));
  EXPECT_EQ(mem.pinned(), mib(512));
  // The rest of the capacity stays pinnable, and not a byte more.
  EXPECT_TRUE(mem.pin(gib(1) - mib(512)));
  EXPECT_FALSE(mem.pin(1));
}

TEST(Memory, PinBeyondCapacityFails) {
  sim::Simulator sim;
  Memory mem(sim, {.capacity = mib(512)});
  EXPECT_TRUE(mem.pin(mib(512)));
  EXPECT_FALSE(mem.pin(1));
  EXPECT_EQ(mem.pinned(), mib(512));
}

TEST(Memory, UnpinReleases) {
  sim::Simulator sim;
  Memory mem(sim, {.capacity = mib(512)});
  ASSERT_TRUE(mem.pin(mib(512)));
  mem.unpin(mib(256));
  EXPECT_EQ(mem.pinned(), mib(256));
  EXPECT_TRUE(mem.pin(mib(256)));
}

TEST(Memory, UnpinMoreThanPinnedThrows) {
  sim::Simulator sim;
  Memory mem(sim, {});
  ASSERT_TRUE(mem.pin(mib(10)));
  EXPECT_THROW(mem.unpin(mib(11)), CheckError);
}

TEST(Memory, ReadTimeMatchesBandwidth) {
  sim::Simulator sim;
  Memory mem(sim, {.capacity = gib(128)});
  // 256MiB at 25GiB/s = 10ms — the RAM-vs-disk gap the paper leans on.
  EXPECT_NEAR(to_seconds(mem.read_time(mib(256))), 0.01, 1e-4);
}

TEST(Memory, ReadCompletesViaSimulator) {
  sim::Simulator sim;
  Memory mem(sim, {});
  bool done = false;
  mem.read(mib(256), [&] { done = true; });
  EXPECT_FALSE(done);
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Memory, UsageSeriesRecordsPinnedBytes) {
  sim::Simulator sim;
  Memory mem(sim, {});
  ASSERT_TRUE(mem.pin(mib(100)));
  sim.run_until(seconds(1));
  ASSERT_TRUE(mem.pin(mib(100)));
  sim.run_until(seconds(2));
  mem.unpin(mib(200));
  const auto& series = mem.usage_series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.step_value_at(seconds(0)), static_cast<double>(mib(100)));
  EXPECT_DOUBLE_EQ(series.step_value_at(seconds(1)), static_cast<double>(mib(200)));
  EXPECT_DOUBLE_EQ(series.step_value_at(seconds(2)), 0.0);
}

}  // namespace
}  // namespace dyrs::cluster
