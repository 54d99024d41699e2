#include "dyrs/oracle.h"

#include <gtest/gtest.h>

#include "testing/fixture.h"

namespace dyrs::core {
namespace {

using dyrs::testing::MiniDfs;

TEST(OracleInRam, PinsAllReplicasInstantly) {
  MiniDfs dfs({.num_nodes = 4, .replication = 3, .block_size = mib(64)});
  OracleInRam oracle(*dfs.cluster, *dfs.namenode);
  const auto& f = dfs.namenode->create_file("/input", mib(128));
  oracle.migrate_blocks(JobId(1), f.blocks, EvictionMode::Explicit);
  // No simulated time passed; everything is already in memory.
  for (BlockId b : f.blocks) {
    EXPECT_EQ(dfs.namenode->memory_locations(b).size(), 3u);
  }
  EXPECT_EQ(oracle.pinned_replica_count(), 6u);
  // Memory is genuinely pinned on the holders.
  Bytes pinned = 0;
  for (NodeId id : dfs.cluster->node_ids()) pinned += dfs.cluster->node(id).memory().pinned();
  EXPECT_EQ(pinned, 3 * mib(128));
}

TEST(OracleInRam, KeepsDataAcrossJobFinishByDefault) {
  MiniDfs dfs;
  OracleInRam oracle(*dfs.cluster, *dfs.namenode);
  const auto& f = dfs.namenode->create_file("/input", mib(64));
  oracle.migrate_blocks(JobId(1), f.blocks, EvictionMode::Explicit);
  oracle.on_job_finished(JobId(1));
  EXPECT_TRUE(dfs.namenode->in_memory(f.blocks[0]));  // vmtouch holds the lock
}

TEST(OracleInRam, SharedBlocksRefcounted) {
  MiniDfs dfs;
  OracleInRam oracle(*dfs.cluster, *dfs.namenode);
  const auto& f = dfs.namenode->create_file("/input", mib(64));
  oracle.migrate_blocks(JobId(1), f.blocks, EvictionMode::Explicit);
  oracle.migrate_blocks(JobId(2), f.blocks, EvictionMode::Explicit);
  oracle.evict_job(JobId(1));
  EXPECT_TRUE(dfs.namenode->in_memory(f.blocks[0]));
  oracle.evict_job(JobId(2));
  EXPECT_FALSE(dfs.namenode->in_memory(f.blocks[0]));
}

TEST(OracleInRam, OutOfMemorySkipsGracefully) {
  MiniDfs dfs({.num_nodes = 2, .replication = 2, .block_size = mib(64), .memory = mib(96)});
  OracleInRam oracle(*dfs.cluster, *dfs.namenode);
  const auto& f = dfs.namenode->create_file("/input", mib(192));  // 3 blocks > memory
  oracle.migrate_blocks(JobId(1), f.blocks, EvictionMode::Explicit);
  // First block pinned on both nodes, second skipped for lack of space.
  EXPECT_TRUE(dfs.namenode->in_memory(f.blocks[0]));
  EXPECT_FALSE(dfs.namenode->in_memory(f.blocks[1]));
}

}  // namespace
}  // namespace dyrs::core
