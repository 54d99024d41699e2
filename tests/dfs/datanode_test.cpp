#include "dfs/datanode.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/check.h"
#include "sim/simulator.h"

namespace dyrs::dfs {
namespace {

// The datanode's replica set is a bitmap by block id: ids past every stored
// block, the invalid id and removed blocks all read as absent.
TEST(DataNode, HasBlockOnlyForStoredBlocks) {
  sim::Simulator sim;
  cluster::Cluster::Options copts;
  copts.num_nodes = 1;
  cluster::Cluster cluster(sim, copts);
  DataNode dn(cluster.node(NodeId(0)));
  dn.add_block(BlockId(2));
  dn.add_block(BlockId(5));
  EXPECT_TRUE(dn.has_block(BlockId(2)));
  EXPECT_TRUE(dn.has_block(BlockId(5)));
  EXPECT_FALSE(dn.has_block(BlockId(0)));
  EXPECT_FALSE(dn.has_block(BlockId(3)));
  EXPECT_FALSE(dn.has_block(BlockId(6)));  // past every stored block
  EXPECT_FALSE(dn.has_block(BlockId(1'000'000)));
  EXPECT_FALSE(dn.has_block(BlockId::invalid()));

  dn.remove_block(BlockId(5));
  EXPECT_FALSE(dn.has_block(BlockId(5)));
  EXPECT_TRUE(dn.has_block(BlockId(2)));
  dn.remove_block(BlockId(1'000'000));  // never stored: no-op
  dn.remove_block(BlockId::invalid());
  EXPECT_TRUE(dn.has_block(BlockId(2)));
  dn.add_block(BlockId(5));
  EXPECT_TRUE(dn.has_block(BlockId(5)));
  EXPECT_THROW(dn.add_block(BlockId::invalid()), CheckError);
}

}  // namespace
}  // namespace dyrs::dfs
