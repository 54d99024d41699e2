// NameNode: metadata master of MiniDFS.
//
// Owns the namespace, the block -> replica map, datanode liveness (driven
// by heartbeats), and the in-memory replica registry that the DYRS master
// updates so reads can be redirected to buffered copies (paper §III: "once
// a block has been migrated, reads will be directed to the in-memory
// replica whether it is local or remote").
//
// Node ids run 0..N-1 (cluster::Cluster numbers its nodes) and the
// namespace numbers block ids 0..B-1, so the tables that reads, pulls and
// migration completions consult are vectors indexed by id, not hash tables.
#pragma once

#include <memory>
#include <vector>

#include "common/random.h"
#include "dfs/datanode.h"
#include "dfs/namespace.h"
#include "dfs/placement.h"
#include "sim/simulator.h"

namespace dyrs::dfs {

class NameNode {
 public:
  struct Options {
    Bytes block_size = kDefaultBlockSize;
    int replication = kDefaultReplication;
    SimDuration heartbeat_interval = seconds(3);  // HDFS default
    std::uint64_t placement_seed = 1;
  };
  /// Consecutive missed heartbeats before a datanode counts as dead.
  static constexpr int kHeartbeatMissLimit = 3;

  NameNode(sim::Simulator& sim, Options opts,
           std::unique_ptr<PlacementPolicy> placement = nullptr);

  // --- datanode membership & liveness ---------------------------------
  void register_datanode(DataNode* dn);
  DataNode* datanode(NodeId id);
  int datanode_count() const { return datanode_count_; }

  /// Receives a heartbeat from a datanode (called by heartbeat drivers).
  void heartbeat(NodeId from);

  /// True while the datanode has not missed kHeartbeatMissLimit beats.
  /// A just-registered node is considered available.
  bool available(NodeId id) const;

  /// Registered, available and its process serving: the only filter the
  /// location queries below apply to a replica holder.
  bool serving(NodeId id) const;

  // --- namespace & placement -------------------------------------------
  /// Creates a file and places replicas of each block on available
  /// datanodes. The dataset pre-exists when experiments start, so creation
  /// is a metadata operation (no simulated write traffic).
  const FileMeta& create_file(const std::string& name, Bytes size);

  const Namespace& ns() const { return ns_; }

  /// Deletes a file: namespace entry, disk replicas on datanodes, and any
  /// in-memory replica registrations. Returns the deleted blocks so the
  /// migration framework can drop its own state for them.
  std::vector<BlockId> delete_file(const std::string& name);

  /// Disk replica holders of a block, filtered to available datanodes.
  std::vector<NodeId> block_locations(BlockId block) const;

  /// All placed replicas, including on dead nodes.
  const std::vector<NodeId>& raw_replicas(BlockId block) const;

  // --- in-memory replica registry --------------------------------------
  void register_memory_replica(BlockId block, NodeId node);
  void unregister_memory_replica(BlockId block, NodeId node);
  /// Drops every in-memory location on `node` (slave crash cleanup).
  void drop_memory_replicas_on(NodeId node);
  /// Drops every in-memory location (master failover: the registry lives
  /// logically in the master).
  void clear_memory_replicas();

  /// Available nodes currently holding `block` in memory.
  std::vector<NodeId> memory_locations(BlockId block) const;
  /// Whether `node` holds a disk or in-memory replica of `block`, whatever
  /// its state: `serving(node) && has_replica_on(block, node)` is membership
  /// in block_locations or memory_locations, without building either.
  bool has_replica_on(BlockId block, NodeId node) const;
  bool in_memory(BlockId block) const { return !memory_locations(block).empty(); }
  std::size_t memory_replica_count() const { return memory_count_; }
  /// Every registered (block, node) in-memory replica pair, unfiltered and
  /// in deterministic order — the invariant checker cross-checks each entry
  /// against the slave that supposedly buffers it.
  std::vector<std::pair<BlockId, NodeId>> memory_replica_entries() const;

  sim::Simulator& simulator() { return sim_; }
  const Options& options() const { return opts_; }

 private:
  sim::Simulator& sim_;
  Options opts_;
  Namespace ns_;
  std::unique_ptr<PlacementPolicy> placement_;
  Rng placement_rng_;

  /// One slot per node id: the datanode (null while unregistered) and the
  /// time of its last heartbeat.
  struct Member {
    DataNode* dn = nullptr;
    SimTime last_heartbeat = 0;
  };
  /// `id`'s slot, or null when no datanode is registered under `id`.
  const Member* member(NodeId id) const;
  /// Heard from within kHeartbeatMissLimit intervals.
  bool heard_recently(const Member& m) const;

  std::vector<Member> members_;  // indexed by NodeId
  int datanode_count_ = 0;
  std::vector<std::vector<NodeId>> replicas_;  // indexed by BlockId
  /// In-memory replica holders, indexed by BlockId like replicas_, each
  /// list sorted by NodeId; memory_count_ is the sum of their sizes.
  std::vector<std::vector<NodeId>> memory_;
  std::size_t memory_count_ = 0;
};

}  // namespace dyrs::dfs
