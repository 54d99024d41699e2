#include "cluster/interference.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/units.h"

namespace dyrs::cluster {
namespace {

Disk::Options disk_opts() {
  return {.name = "d", .bandwidth = mib_per_sec(100), .seek_alpha = 0.0};
}

TEST(DiskInterference, ActivateDeactivateIdempotent) {
  sim::Simulator sim;
  Disk disk(sim, disk_opts());
  DiskInterference dd(disk, 2);
  EXPECT_FALSE(dd.active());
  dd.activate();
  dd.activate();
  EXPECT_TRUE(dd.active());
  EXPECT_EQ(disk.active_interference(), 2);
  dd.deactivate();
  dd.deactivate();
  EXPECT_FALSE(dd.active());
  EXPECT_EQ(disk.active_flows(), 0);
}

TEST(DiskInterference, SlowsConcurrentRead) {
  sim::Simulator sim;
  Disk disk(sim, disk_opts());
  DiskInterference dd(disk, 2);
  dd.activate();
  SimTime done = -1;
  disk.start_io(IoClass::MigrationRead, mib(100), [&](SimTime t) { done = t; });
  sim.run_until(seconds(60));
  // Three-way share → 33.3 MiB/s → 3s.
  EXPECT_NEAR(to_seconds(done), 3.0, 1e-3);
}

TEST(DiskInterference, DestructorCleansUp) {
  sim::Simulator sim;
  Disk disk(sim, disk_opts());
  {
    DiskInterference dd(disk, 3);
    dd.activate();
    EXPECT_EQ(disk.active_flows(), 3);
  }
  EXPECT_EQ(disk.active_flows(), 0);
}

TEST(AlternatingInterference, TogglesEveryPeriod) {
  sim::Simulator sim;
  Disk disk(sim, disk_opts());
  AlternatingInterference alt(sim, disk, seconds(10), /*initially_active=*/true);
  EXPECT_TRUE(alt.active());
  sim.run_until(seconds(10));
  EXPECT_FALSE(alt.active());
  sim.run_until(seconds(20));
  EXPECT_TRUE(alt.active());
  alt.stop();
  EXPECT_FALSE(alt.active());
  sim.run_until(seconds(60));
  EXPECT_FALSE(alt.active());
}

TEST(AlternatingInterference, AntiPhasePairKeepsExactlyOneActive) {
  // Fig 9d/9e setup: when interference is active on node 1 it is inactive
  // on node 2 and vice versa.
  sim::Simulator sim;
  Cluster cluster(sim, {.num_nodes = 2, .node = {}});
  AlternatingInterference a(sim, cluster.node(NodeId(0)).disk(), seconds(10), true);
  AlternatingInterference b(sim, cluster.node(NodeId(1)).disk(), seconds(10), false);
  for (int step = 0; step < 6; ++step) {
    EXPECT_NE(a.active(), b.active()) << "at t=" << to_seconds(sim.now());
    sim.run_until(sim.now() + seconds(10));
  }
}

TEST(AlternatingInterference, InactiveStartDelaysInterference) {
  sim::Simulator sim;
  Disk disk(sim, disk_opts());
  AlternatingInterference alt(sim, disk, seconds(5), /*initially_active=*/false);
  EXPECT_FALSE(alt.active());
  SimTime done = -1;
  disk.start_io(IoClass::TaskRead, mib(100), [&](SimTime t) { done = t; });
  sim.run_until(seconds(30));
  // Read runs alone for the full first period (1s < 5s) → unimpeded.
  EXPECT_NEAR(to_seconds(done), 1.0, 1e-3);
  alt.stop();
}

}  // namespace
}  // namespace dyrs::cluster
