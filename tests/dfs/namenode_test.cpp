#include "dfs/namenode.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/fixture.h"

namespace dyrs::dfs {
namespace {

using dyrs::testing::MiniDfs;

TEST(NameNode, CreateFilePlacesReplicasOnDistinctNodes) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(256));
  ASSERT_EQ(f.blocks.size(), 4u);
  for (BlockId b : f.blocks) {
    auto locs = t.namenode->block_locations(b);
    EXPECT_EQ(locs.size(), 3u);
    std::sort(locs.begin(), locs.end());
    EXPECT_EQ(std::unique(locs.begin(), locs.end()), locs.end());
  }
}

TEST(NameNode, DatanodesStoreTheirReplicas) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(64));
  const BlockId b = f.blocks[0];
  for (NodeId n : t.namenode->block_locations(b)) {
    EXPECT_TRUE(t.namenode->datanode(n)->has_block(b));
  }
}

TEST(NameNode, HeartbeatKeepsNodeAvailable) {
  MiniDfs t;
  t.sim.run_until(minutes(2));
  for (NodeId n : t.cluster->node_ids()) {
    EXPECT_TRUE(t.namenode->available(n));
  }
}

TEST(NameNode, MissedHeartbeatsMarkNodeDead) {
  MiniDfs t;
  t.namenode->create_file("/input", mib(64));
  t.sim.run_until(seconds(5));
  // Kill node 0's server: it stops heartbeating.
  t.cluster->node(NodeId(0)).set_alive(false);
  t.sim.run_until(seconds(5) + seconds(3) * 3 + seconds(2));
  EXPECT_FALSE(t.namenode->available(NodeId(0)));
  EXPECT_TRUE(t.namenode->available(NodeId(1)));
}

TEST(NameNode, BlockLocationsFilterDeadNodes) {
  MiniDfs t({.num_nodes = 3, .replication = 3});
  const auto& f = t.namenode->create_file("/input", mib(64));
  const BlockId b = f.blocks[0];
  ASSERT_EQ(t.namenode->block_locations(b).size(), 3u);
  t.cluster->node(NodeId(1)).set_alive(false);
  t.sim.run_until(seconds(15));
  auto locs = t.namenode->block_locations(b);
  EXPECT_EQ(locs.size(), 2u);
  EXPECT_EQ(std::count(locs.begin(), locs.end(), NodeId(1)), 0);
  // Raw replicas still remember the dead holder (needed for recovery).
  EXPECT_EQ(t.namenode->raw_replicas(b).size(), 3u);
}

TEST(NameNode, ProcessCrashRemovesFromService) {
  MiniDfs t({.num_nodes = 3, .replication = 3});
  const auto& f = t.namenode->create_file("/input", mib(64));
  const BlockId b = f.blocks[0];
  t.datanodes[0]->crash_process();
  EXPECT_FALSE(t.datanodes[0]->serving());
  auto locs = t.namenode->block_locations(b);
  EXPECT_EQ(std::count(locs.begin(), locs.end(), NodeId(0)), 0);
  t.datanodes[0]->restart_process();
  EXPECT_TRUE(t.datanodes[0]->serving());
  EXPECT_EQ(t.namenode->block_locations(b).size(), 3u);
}

TEST(NameNode, MemoryReplicaRegistry) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(128));
  const BlockId b = f.blocks[0];
  EXPECT_FALSE(t.namenode->in_memory(b));
  t.namenode->register_memory_replica(b, NodeId(2));
  EXPECT_TRUE(t.namenode->in_memory(b));
  EXPECT_EQ(t.namenode->memory_locations(b), std::vector<NodeId>{NodeId(2)});
  t.namenode->unregister_memory_replica(b, NodeId(2));
  EXPECT_FALSE(t.namenode->in_memory(b));
}

TEST(NameNode, MemoryLocationsFilterUnavailableNodes) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(64));
  const BlockId b = f.blocks[0];
  t.namenode->register_memory_replica(b, NodeId(0));
  t.cluster->node(NodeId(0)).set_alive(false);
  t.sim.run_until(seconds(15));
  EXPECT_FALSE(t.namenode->in_memory(b));
}

// The exec scheduler's allocation-free locality test must agree with the
// two location queries through every kind of outage.
TEST(NameNode, ServingAndHasReplicaOnMatchLocationQueries) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(64) * 8);
  for (std::size_t i = 0; i < f.blocks.size(); ++i) {
    t.namenode->register_memory_replica(f.blocks[i], NodeId(static_cast<std::int64_t>(i % 4)));
  }
  auto expect_agree = [&](const char* state) {
    for (BlockId b : f.blocks) {
      const auto disk = t.namenode->block_locations(b);
      const auto memory = t.namenode->memory_locations(b);
      for (NodeId n : t.cluster->node_ids()) {
        const bool listed = std::count(disk.begin(), disk.end(), n) > 0 ||
                            std::count(memory.begin(), memory.end(), n) > 0;
        EXPECT_EQ(t.namenode->serving(n) && t.namenode->has_replica_on(b, n), listed)
            << state << ": block " << b << " node " << n;
      }
    }
  };
  expect_agree("healthy");
  t.datanodes[0]->crash_process();
  expect_agree("process crash");
  t.cluster->node(NodeId(1)).set_alive(false);
  t.sim.run_until(seconds(15));
  EXPECT_FALSE(t.namenode->available(NodeId(1)));
  expect_agree("server death");
  EXPECT_FALSE(t.namenode->serving(NodeId(99)));  // never registered
}

TEST(NameNode, DropMemoryReplicasOnNode) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/input", mib(192));
  t.namenode->register_memory_replica(f.blocks[0], NodeId(1));
  t.namenode->register_memory_replica(f.blocks[1], NodeId(1));
  t.namenode->register_memory_replica(f.blocks[2], NodeId(2));
  t.namenode->drop_memory_replicas_on(NodeId(1));
  EXPECT_FALSE(t.namenode->in_memory(f.blocks[0]));
  EXPECT_FALSE(t.namenode->in_memory(f.blocks[1]));
  EXPECT_TRUE(t.namenode->in_memory(f.blocks[2]));
  EXPECT_EQ(t.namenode->memory_replica_count(), 1u);
}

TEST(NameNode, PlacementDeterministicAcrossRuns) {
  MiniDfs a({.placement_seed = 77});
  MiniDfs b({.placement_seed = 77});
  const auto& fa = a.namenode->create_file("/input", mib(640));
  const auto& fb = b.namenode->create_file("/input", mib(640));
  for (std::size_t i = 0; i < fa.blocks.size(); ++i) {
    EXPECT_EQ(a.namenode->raw_replicas(fa.blocks[i]), b.namenode->raw_replicas(fb.blocks[i]));
  }
}

}  // namespace
}  // namespace dyrs::dfs
