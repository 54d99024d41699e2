// Shared test harness: a small cluster with MiniDFS wired up.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "dfs/client.h"
#include "dfs/heartbeat.h"
#include "dfs/namenode.h"
#include "sim/simulator.h"

namespace dyrs::testing {

struct MiniDfs {
  struct Options {
    int num_nodes = 4;
    Rate disk_bw = mib_per_sec(100);
    double seek_alpha = 0.0;  // exact arithmetic in tests unless opted in
    int replication = 3;
    Bytes block_size = mib(64);
    Bytes memory = gib(8);
    std::uint64_t placement_seed = 1;
    std::unique_ptr<dfs::PlacementPolicy> placement{};  // default: random
  };

  MiniDfs() : MiniDfs(Options{}) {}

  explicit MiniDfs(Options o) {
    cluster = std::make_unique<cluster::Cluster>(
        sim, cluster::Cluster::Options{
                 .num_nodes = o.num_nodes,
                 .node = {.disk = {.name = "disk", .bandwidth = o.disk_bw,
                                   .seek_alpha = o.seek_alpha},
                          .memory = {.capacity = o.memory,
                                     .read_bandwidth = gib_per_sec(25)},
                          .nic_bandwidth = gbit_per_sec(10)}});
    namenode = std::make_unique<dfs::NameNode>(
        sim,
        dfs::NameNode::Options{.block_size = o.block_size,
                               .replication = o.replication,
                               .heartbeat_interval = seconds(1),
                               .placement_seed = o.placement_seed},
        std::move(o.placement));
    for (NodeId id : cluster->node_ids()) {
      datanodes.push_back(std::make_unique<dfs::DataNode>(cluster->node(id)));
      namenode->register_datanode(datanodes.back().get());
    }
    std::vector<dfs::DataNode*> dns;
    for (auto& dn : datanodes) dns.push_back(dn.get());
    heartbeats = std::make_unique<dfs::HeartbeatDriver>(sim, *namenode, dns);
    client = std::make_unique<dfs::DFSClient>(*cluster, *namenode, /*seed=*/5);
  }

  sim::Simulator sim;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<dfs::NameNode> namenode;
  std::vector<std::unique_ptr<dfs::DataNode>> datanodes;
  std::unique_ptr<dfs::HeartbeatDriver> heartbeats;
  std::unique_ptr<dfs::DFSClient> client;
};

}  // namespace dyrs::testing
