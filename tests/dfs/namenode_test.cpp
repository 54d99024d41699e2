#include "dfs/namenode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
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

// The namenode indexes its datanode table by node id: a hole, an id past
// the last registered node and the invalid id all read as unregistered.
TEST(NameNode, SparseRegistrationLeavesHolesUnregistered) {
  sim::Simulator sim;
  cluster::Cluster::Options copts;
  copts.num_nodes = 10;
  cluster::Cluster cluster(sim, copts);
  NameNode nn(sim, {.block_size = mib(64), .replication = 3});
  std::vector<std::unique_ptr<DataNode>> dns;
  for (int id : {0, 3, 9}) {
    dns.push_back(std::make_unique<DataNode>(cluster.node(NodeId(id))));
    nn.register_datanode(dns.back().get());
  }
  EXPECT_EQ(nn.datanode_count(), 3);
  for (int id : {0, 3, 9}) {
    EXPECT_TRUE(nn.available(NodeId(id)));
    EXPECT_TRUE(nn.serving(NodeId(id)));
    EXPECT_EQ(nn.datanode(NodeId(id))->id(), NodeId(id));
    EXPECT_NO_THROW(nn.heartbeat(NodeId(id)));
  }
  for (NodeId n : {NodeId(5), NodeId(12), NodeId::invalid()}) {
    EXPECT_FALSE(nn.available(n)) << n;
    EXPECT_FALSE(nn.serving(n)) << n;
    EXPECT_THROW(nn.datanode(n), CheckError) << n;
    EXPECT_THROW(nn.heartbeat(n), CheckError) << n;
  }
  EXPECT_THROW(nn.register_datanode(dns[1].get()), CheckError);  // node 3 again
  EXPECT_EQ(nn.datanode_count(), 3);
  // Placement picks only registered nodes.
  const std::vector<NodeId> registered{NodeId(0), NodeId(3), NodeId(9)};
  for (BlockId b : nn.create_file("/input", mib(64) * 4).blocks) {
    auto replicas = nn.raw_replicas(b);
    std::sort(replicas.begin(), replicas.end());
    EXPECT_EQ(replicas, registered) << "block " << b;
  }
}

// The in-memory replica registry against a set model: 200 seeded sequences
// of registrations (duplicates included), unregistrations (absent pairs
// included), node drops and file deletions. Node 3's process is down and
// node 4 was never registered, so memory_locations must filter both.
TEST(NameNode, MemoryRegistryMatchesASetModel) {
  constexpr std::int64_t kNodes = 5;  // MiniDfs registers 0..3
  long duplicates = 0;
  long absent = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MiniDfs t({.placement_seed = seed});
    NameNode& nn = *t.namenode;
    std::vector<std::string> files{"/a", "/b", "/c"};
    std::vector<BlockId> blocks;
    for (const auto& name : files) {
      for (BlockId b : nn.create_file(name, mib(64) * 3).blocks) blocks.push_back(b);
    }
    t.datanodes[3]->crash_process();
    std::set<std::pair<BlockId, NodeId>> model;
    Rng rng(seed);
    auto any_node = [&] { return NodeId(rng.uniform_int(0, kNodes - 1)); };
    auto any_block = [&] {
      return blocks[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(blocks.size()) - 1))];
    };
    auto expect_model = [&](const std::string& op) {
      SCOPED_TRACE("after " + op);
      ASSERT_EQ(nn.memory_replica_count(), model.size());
      ASSERT_EQ(nn.memory_replica_entries(),
                (std::vector<std::pair<BlockId, NodeId>>(model.begin(), model.end())));
      for (BlockId b : blocks) {
        std::vector<NodeId> expected;
        for (auto it = model.lower_bound({b, NodeId(0)}); it != model.end() && it->first == b;
             ++it) {
          if (nn.serving(it->second)) expected.push_back(it->second);
        }
        ASSERT_EQ(nn.memory_locations(b), expected) << "block " << b;
        const auto& disk = nn.raw_replicas(b);
        for (std::int64_t n = 0; n < kNodes; ++n) {
          const bool held = std::count(disk.begin(), disk.end(), NodeId(n)) > 0 ||
                            model.count({b, NodeId(n)}) > 0;
          ASSERT_EQ(nn.has_replica_on(b, NodeId(n)), held) << "block " << b << " node " << n;
        }
      }
    };
    for (int step = 0; step < 60; ++step) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      std::string op;
      if (kind < 5) {
        const BlockId b = any_block();
        const NodeId n = any_node();
        duplicates += model.count({b, n}) ? 1 : 0;
        nn.register_memory_replica(b, n);
        model.insert({b, n});
        op = "register";
      } else if (kind < 8) {
        // Half the time a registered pair, otherwise any pair.
        std::pair<BlockId, NodeId> pair{any_block(), any_node()};
        if (!model.empty() && rng.bernoulli(0.5)) {
          pair = *std::next(model.begin(), rng.uniform_int(
                                               0, static_cast<std::int64_t>(model.size()) - 1));
        }
        absent += model.count(pair) ? 0 : 1;
        nn.unregister_memory_replica(pair.first, pair.second);
        model.erase(pair);
        op = "unregister";
      } else if (kind == 8) {
        const NodeId n = any_node();
        nn.drop_memory_replicas_on(n);
        std::erase_if(model, [n](const auto& e) { return e.second == n; });
        op = "drop";
      } else {
        if (files.empty()) continue;
        const auto f = files.begin() + rng.uniform_int(0, static_cast<std::int64_t>(files.size()) - 1);
        const auto deleted = nn.delete_file(*f);
        files.erase(f);
        std::erase_if(model, [&](const auto& e) {
          return std::count(deleted.begin(), deleted.end(), e.first) > 0;
        });
        op = "delete";
      }
      expect_model(op + " at step " + std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(duplicates, 0);
  EXPECT_GT(absent, 0);
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
