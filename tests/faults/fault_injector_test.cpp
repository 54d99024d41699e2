#include "faults/fault_injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace.h"
#include "testing/fixture.h"

namespace dyrs::faults {
namespace {

using dyrs::testing::MiniDfs;

struct InjectorFixture : ::testing::Test {
  MiniDfs dfs;
  FaultInjector injector{dfs.sim, *dfs.cluster, *dfs.namenode, /*seed=*/7};
};

TEST_F(InjectorFixture, ProcessCrashAndRestart) {
  FaultPlan plan;
  plan.crash_process(NodeId(1), seconds(1), seconds(2));
  injector.install(plan);
  dfs::DataNode* dn = dfs.namenode->datanode(NodeId(1));
  dfs.sim.run_until(milliseconds(1500));
  EXPECT_FALSE(dn->process_alive());
  EXPECT_TRUE(dn->node().alive());  // server stays up
  dfs.sim.run_until(milliseconds(2500));
  EXPECT_TRUE(dn->process_alive());
  EXPECT_EQ(injector.events_applied(), 2);
}

TEST_F(InjectorFixture, ServerDeathKillsProcessAndRejoins) {
  FaultPlan plan;
  plan.kill_server(NodeId(2), seconds(1), seconds(3));
  injector.install(plan);
  dfs::DataNode* dn = dfs.namenode->datanode(NodeId(2));
  dfs.sim.run_until(seconds(2));
  EXPECT_FALSE(dn->node().alive());
  EXPECT_FALSE(dn->process_alive());
  EXPECT_FALSE(dn->serving());
  dfs.sim.run_until(seconds(4));
  EXPECT_TRUE(dn->node().alive());
  EXPECT_TRUE(dn->process_alive());
  EXPECT_TRUE(dn->serving());
}

TEST_F(InjectorFixture, PartitionStopsHeartbeatsUntilHealed) {
  // MiniDfs heartbeats every 1s with a miss limit of 3.
  FaultPlan plan;
  plan.partition(NodeId(0), seconds(1), seconds(10));
  injector.install(plan);
  dfs::DataNode* dn = dfs.namenode->datanode(NodeId(0));
  dfs.sim.run_until(seconds(2));
  EXPECT_TRUE(dn->partitioned());
  EXPECT_TRUE(dn->serving());  // process and server survive a partition
  EXPECT_TRUE(dfs.namenode->available(NodeId(0)));  // not yet detected
  dfs.sim.run_until(seconds(8));
  EXPECT_FALSE(dfs.namenode->available(NodeId(0)));  // declared dead
  dfs.sim.run_until(seconds(12));
  EXPECT_FALSE(dn->partitioned());
  EXPECT_TRUE(dfs.namenode->available(NodeId(0)));  // heartbeats resumed
}

TEST_F(InjectorFixture, DiskDegradationStacksAndRestores) {
  const Rate nominal = dfs.cluster->node(NodeId(0)).disk().bandwidth();
  FaultPlan plan;
  plan.degrade_disk(NodeId(0), seconds(1), seconds(4), 0.5);
  plan.degrade_disk(NodeId(0), seconds(2), seconds(3), 0.5);
  injector.install(plan);
  dfs.sim.run_until(milliseconds(1500));
  EXPECT_DOUBLE_EQ(dfs.cluster->node(NodeId(0)).disk().bandwidth(), nominal * 0.5);
  dfs.sim.run_until(milliseconds(2500));  // overlapping windows multiply
  EXPECT_DOUBLE_EQ(dfs.cluster->node(NodeId(0)).disk().bandwidth(), nominal * 0.25);
  dfs.sim.run_until(milliseconds(3500));
  EXPECT_DOUBLE_EQ(dfs.cluster->node(NodeId(0)).disk().bandwidth(), nominal * 0.5);
  dfs.sim.run_until(milliseconds(4500));
  EXPECT_DOUBLE_EQ(dfs.cluster->node(NodeId(0)).disk().bandwidth(), nominal);
  EXPECT_DOUBLE_EQ(dfs.cluster->node(NodeId(0)).disk().nominal_bandwidth(), nominal);
}

TEST_F(InjectorFixture, IoErrorWindowFailsMigrationReads) {
  FaultPlan plan;
  plan.io_errors(NodeId(1), seconds(1), seconds(2), /*rate=*/1.0);
  injector.install(plan);
  dfs::DataNode* dn = dfs.namenode->datanode(NodeId(1));
  ASSERT_TRUE(dn->migration_read_fault);  // hook installed
  int in_window = 0, outside = 0;
  dfs.sim.schedule_at(milliseconds(1500), [&]() {
    for (int i = 0; i < 4; ++i) in_window += dn->migration_read_fault() ? 1 : 0;
  });
  dfs.sim.schedule_at(milliseconds(2500), [&]() {
    for (int i = 0; i < 4; ++i) outside += dn->migration_read_fault() ? 1 : 0;
  });
  dfs.sim.run_until(seconds(3));
  EXPECT_EQ(in_window, 4);  // rate 1.0: every read in the window fails
  EXPECT_EQ(outside, 0);
  EXPECT_EQ(injector.io_errors_injected(), 4);
}

TEST_F(InjectorFixture, AfterEventHookFiresPerTransition) {
  FaultPlan plan;
  plan.crash_process(NodeId(1), seconds(1), seconds(2));
  plan.partition(NodeId(2), seconds(1), seconds(3));
  injector.install(plan);
  int fired = 0;
  injector.after_event = [&]() { ++fired; };
  dfs.sim.run_until(seconds(4));
  EXPECT_EQ(fired, 4);  // two starts + two ends
}

TEST(FaultPlan, RandomIsDeterministicPerSeed) {
  RandomPlanOptions opts;
  opts.num_nodes = 5;
  const FaultPlan a = FaultPlan::random(opts, 42);
  const FaultPlan b = FaultPlan::random(opts, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_FALSE(a.events.empty());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].describe(), b.events[i].describe());
  }
  const FaultPlan c = FaultPlan::random(opts, 43);
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].describe() != c.events[i].describe();
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomDownIncidentsNeverOverlap) {
  RandomPlanOptions opts;
  opts.num_nodes = 7;
  opts.incidents = 10;
  opts.horizon = seconds(600);
  const FaultPlan plan = FaultPlan::random(opts, 11);
  SimTime last_end = -1;
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::IoErrors || e.kind == FaultKind::DiskDegradation) continue;
    EXPECT_GE(e.at, last_end) << e.describe();
    last_end = e.until;
  }
}

TEST(FaultInjector, TraceIsReproducible) {
  auto run_once = []() {
    MiniDfs dfs;
    obs::Tracer tracer;
    obs::MemorySink sink;
    tracer.set_sink(&sink);
    FaultInjector injector(dfs.sim, *dfs.cluster, *dfs.namenode, /*seed=*/5);
    injector.set_obs(obs::ObsContext(nullptr, &tracer));
    RandomPlanOptions opts;
    opts.num_nodes = 4;
    opts.horizon = seconds(60);
    injector.install(FaultPlan::random(opts, 21));
    dfs.sim.run_until(seconds(70));
    std::vector<std::string> faults;
    for (const obs::TraceEvent& e : sink.events()) {
      if (e.type == "fault") faults.push_back(obs::to_json(e));
    }
    EXPECT_EQ(static_cast<int>(faults.size()), injector.events_applied());
    return faults;
  };
  const std::vector<std::string> first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_once());
}

}  // namespace
}  // namespace dyrs::faults
