// File-deletion semantics across the stack.
#include <gtest/gtest.h>

#include "dyrs/strategies.h"
#include "exec/testbed.h"
#include "testing/fixture.h"

namespace dyrs::dfs {
namespace {

using dyrs::testing::MiniDfs;

TEST(NamespaceDelete, RemovesNameKeepsBlockIds) {
  Namespace ns(mib(64));
  const auto& f = ns.create_file("/a", mib(128));
  const FileId id = f.id;
  auto blocks = ns.delete_file("/a");
  EXPECT_EQ(blocks.size(), 2u);
  EXPECT_FALSE(ns.exists("/a"));
  EXPECT_TRUE(ns.deleted(id));
  EXPECT_TRUE(ns.block_deleted(blocks[0]));
  // Block metadata remains resolvable (ids are never reused).
  EXPECT_EQ(ns.block(blocks[0]).file, id);
}

TEST(NamespaceDelete, NameCanBeReused) {
  Namespace ns(mib(64));
  ns.create_file("/a", mib(64));
  ns.delete_file("/a");
  const auto& again = ns.create_file("/a", mib(64));
  EXPECT_FALSE(ns.deleted(again.id));
}

TEST(NamespaceDelete, UnknownNameThrows) {
  Namespace ns;
  EXPECT_THROW(ns.delete_file("/nope"), CheckError);
}

TEST(NameNodeDelete, DropsReplicasAndRegistry) {
  MiniDfs t;
  const auto& f = t.namenode->create_file("/in", mib(128));
  const BlockId b0 = f.blocks[0];
  const auto holders = t.namenode->block_locations(b0);
  t.namenode->register_memory_replica(b0, holders[0]);
  auto blocks = t.namenode->delete_file("/in");
  EXPECT_EQ(blocks.size(), 2u);
  EXPECT_TRUE(t.namenode->block_locations(b0).empty());
  EXPECT_FALSE(t.namenode->in_memory(b0));
  for (NodeId n : holders) {
    EXPECT_FALSE(t.namenode->datanode(n)->has_block(b0));
  }
}

TEST(MasterDelete, DropsPendingBoundAndBuffered) {
  MiniDfs t({.num_nodes = 3,
             .disk_bw = mib_per_sec(64),
             .seek_alpha = 0.0,
             .replication = 3,
             .block_size = mib(64)});
  core::MasterConfig config;
  config.slave.reference_block = mib(64);
  auto master = core::make_dyrs(*t.cluster, *t.namenode, config);
  t.namenode->create_file("/in", mib(64) * 12);
  master->migrate_files(JobId(1), {"/in"}, core::EvictionMode::Explicit);
  t.sim.run_until(seconds(3));  // a few blocks buffered, some bound, some pending
  auto blocks = t.namenode->delete_file("/in");
  master->on_blocks_deleted(blocks);
  EXPECT_EQ(master->pending_count(), 0u);
  EXPECT_EQ(master->bound_count(), 0u);
  t.sim.run_until(seconds(20));
  // Nothing left pinned anywhere, no dangling registry entries.
  for (NodeId id : t.cluster->node_ids()) {
    EXPECT_EQ(t.cluster->node(id).memory().pinned(), 0) << "node " << id;
  }
  EXPECT_EQ(t.namenode->memory_replica_count(), 0u);
}

TEST(OracleDelete, UnpinsAllReplicas) {
  MiniDfs t;
  core::OracleInRam oracle(*t.cluster, *t.namenode);
  const auto& f = t.namenode->create_file("/in", mib(128));
  oracle.migrate_blocks(JobId(1), f.blocks, core::EvictionMode::Explicit);
  ASSERT_GT(oracle.pinned_replica_count(), 0u);
  auto blocks = t.namenode->delete_file("/in");
  oracle.on_blocks_deleted(blocks);
  EXPECT_EQ(oracle.pinned_replica_count(), 0u);
  for (NodeId id : t.cluster->node_ids()) {
    EXPECT_EQ(t.cluster->node(id).memory().pinned(), 0);
  }
}

TEST(TestbedDelete, RemoveFileEndToEnd) {
  exec::TestbedConfig config;
  config.num_nodes = 3;
  config.block_size = mib(64);
  config.scheme = exec::Scheme::Dyrs;
  config.master.slave.reference_block = mib(64);
  exec::Testbed tb(config);
  tb.load_file("/tmp-table", mib(256));
  // Migrate it, then drop it (the Hive intermediate-cleanup pattern).
  tb.master()->migrate_files(JobId(7), {"/tmp-table"}, core::EvictionMode::Explicit);
  tb.simulator().run_until(seconds(30));
  tb.remove_file("/tmp-table");
  EXPECT_FALSE(tb.namenode().ns().exists("/tmp-table"));
  EXPECT_EQ(tb.namenode().memory_replica_count(), 0u);
  for (NodeId id : tb.cluster().node_ids()) {
    EXPECT_EQ(tb.cluster().node(id).memory().pinned(), 0);
  }
}

}  // namespace
}  // namespace dyrs::dfs
