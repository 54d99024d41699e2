// Re-replication recovery tests: lost replicas are copied back to healthy
// nodes, restoring the replication target.
#include <gtest/gtest.h>

#include "testing/fixture.h"

namespace dyrs::dfs {
namespace {

using dyrs::testing::MiniDfs;

MiniDfs::Options opts() {
  MiniDfs::Options o;
  o.num_nodes = 5;
  o.disk_bw = mib_per_sec(64);
  o.replication = 3;
  o.block_size = mib(64);
  return o;
}

TEST(Rereplication, DetectsUnderReplicatedBlocks) {
  MiniDfs t(opts());
  const auto& f = t.namenode->create_file("/in", mib(128));
  EXPECT_TRUE(t.namenode->under_replicated_blocks().empty());
  // Kill one replica holder of block 0.
  const NodeId victim = t.namenode->block_locations(f.blocks[0])[0];
  t.cluster->node(victim).set_alive(false);
  t.sim.run_until(seconds(15));  // liveness detection
  auto under = t.namenode->under_replicated_blocks();
  EXPECT_FALSE(under.empty());
}

TEST(Rereplication, ManualPassRestoresReplication) {
  MiniDfs t(opts());
  const auto& f = t.namenode->create_file("/in", mib(64));
  const BlockId b = f.blocks[0];
  const NodeId victim = t.namenode->block_locations(b)[0];
  t.cluster->node(victim).set_alive(false);
  t.sim.run_until(seconds(15));
  ASSERT_EQ(t.namenode->block_locations(b).size(), 2u);

  const int started = t.namenode->rereplicate_once();
  EXPECT_EQ(started, 1);
  t.sim.run_until(seconds(30));  // copy: 1s read + 1s write
  EXPECT_EQ(t.namenode->block_locations(b).size(), 3u);
  EXPECT_EQ(t.namenode->rereplications_completed(), 1);
  // The new holder can serve reads.
  for (NodeId n : t.namenode->block_locations(b)) {
    EXPECT_TRUE(t.namenode->datanode(n)->has_block(b));
  }
}

TEST(Rereplication, NoDuplicateCopiesWhileInFlight) {
  MiniDfs t(opts());
  const auto& f = t.namenode->create_file("/in", mib(64));
  const NodeId victim = t.namenode->block_locations(f.blocks[0])[0];
  t.cluster->node(victim).set_alive(false);
  t.sim.run_until(seconds(15));
  EXPECT_EQ(t.namenode->rereplicate_once(), 1);
  EXPECT_EQ(t.namenode->rereplicate_once(), 0);  // already copying
}

TEST(Rereplication, AutomaticTimerRecovers) {
  MiniDfs::Options o = opts();
  // Build a MiniDfs-like fixture manually to enable the timer.
  sim::Simulator sim;
  cluster::Cluster cluster(
      sim, {.num_nodes = 5,
            .node = {.disk = {.name = "d", .bandwidth = mib_per_sec(64), .seek_alpha = 0.0},
                     .memory = {},
                     .nic_bandwidth = gbit_per_sec(10)},
            .per_node = nullptr});
  NameNode namenode(sim, {.block_size = mib(64),
                          .replication = 3,
                          .heartbeat_interval = seconds(1),
                          .heartbeat_miss_limit = 3,
                          .placement_seed = 1,
                          .auto_rereplicate = true,
                          .rereplication_interval = seconds(5)});
  std::vector<std::unique_ptr<DataNode>> datanodes;
  for (NodeId id : cluster.node_ids()) {
    datanodes.push_back(std::make_unique<DataNode>(cluster.node(id)));
    namenode.register_datanode(datanodes.back().get());
  }
  std::vector<DataNode*> dns;
  for (auto& dn : datanodes) dns.push_back(dn.get());
  HeartbeatDriver heartbeats(sim, namenode, dns);

  const auto& f = namenode.create_file("/in", mib(192));
  const NodeId victim = namenode.block_locations(f.blocks[0])[0];
  cluster.node(victim).set_alive(false);
  sim.run_until(minutes(2));
  for (BlockId b : f.blocks) {
    EXPECT_GE(namenode.block_locations(b).size(), 3u) << "block " << b;
  }
}

TEST(Rereplication, SkipsBlocksWithNoLiveSource) {
  MiniDfs t({.num_nodes = 2, .disk_bw = mib_per_sec(64), .replication = 2,
             .block_size = mib(64)});
  t.namenode->create_file("/in", mib(64));
  t.cluster->node(NodeId(0)).set_alive(false);
  t.cluster->node(NodeId(1)).set_alive(false);
  t.sim.run_until(seconds(15));
  // No live replicas at all: nothing to copy from (and nowhere to put it).
  EXPECT_EQ(t.namenode->rereplicate_once(), 0);
}

TEST(Rereplication, DeletedFilesAreIgnored) {
  MiniDfs t(opts());
  const auto& f = t.namenode->create_file("/in", mib(64));
  const NodeId victim = t.namenode->block_locations(f.blocks[0])[0];
  t.cluster->node(victim).set_alive(false);
  t.sim.run_until(seconds(15));
  t.namenode->delete_file("/in");
  EXPECT_TRUE(t.namenode->under_replicated_blocks().empty());
  EXPECT_EQ(t.namenode->rereplicate_once(), 0);
}

}  // namespace
}  // namespace dyrs::dfs
