// DataNode: the storage daemon on one cluster node.
//
// Stores block replicas on the node's disk and serves reads either from
// disk or from the buffer cache (blocks pinned by the DYRS slave). Tracks
// process liveness separately from server liveness: a crashed process loses
// its pinned buffers (the OS reclaims mlocked pages) but the on-disk
// replicas survive; a dead server loses both until it returns.
#pragma once

#include <functional>
#include <vector>

#include "cluster/node.h"
#include "dfs/types.h"

namespace dyrs::dfs {

class DataNode {
 public:
  explicit DataNode(cluster::Node& node) : node_(node) {}

  NodeId id() const { return node_.id(); }
  cluster::Node& node() { return node_; }

  void add_block(BlockId block);
  void remove_block(BlockId block) {
    if (has_block(block)) stored_[static_cast<std::size_t>(block.value())] = false;
  }
  bool has_block(BlockId block) const {
    const auto b = static_cast<std::size_t>(block.value());
    return block.valid() && b < stored_.size() && stored_[b];
  }

  /// True when both the server and the datanode process are up.
  bool serving() const { return node_.alive() && process_alive_; }
  bool process_alive() const { return process_alive_; }

  /// Network partition between this node and the namenode: the process and
  /// server stay up (local state survives) but heartbeats stop flowing, so
  /// the namenode eventually declares the node dead and the migration
  /// master reclaims work bound to it. Heals without losing buffers.
  bool partitioned() const { return partitioned_; }
  void set_partitioned(bool partitioned) { partitioned_ = partitioned; }

  /// Crashes the datanode process. `on_process_crash` (the DYRS slave's
  /// cleanup) runs immediately: buffers are reclaimed by the OS.
  void crash_process() {
    process_alive_ = false;
    if (on_process_crash) on_process_crash();
  }

  /// Restarts the process with no buffered state.
  void restart_process() { process_alive_ = true; }

  /// Hook installed by the migration slave to drop soft state on crash.
  std::function<void()> on_process_crash;

  /// Fault-injection hook consulted when a migration read completes: a
  /// `true` return means the read hit an I/O error and the migration must
  /// retry (or give up and report a permanent failure). Unset = no faults.
  std::function<bool()> migration_read_fault;

  /// Reads `bytes` of `block` from the local disk. Asserts the replica
  /// exists — callers route via NameNode::block_locations first.
  cluster::Disk::FlowId read_from_disk(BlockId block, Bytes bytes, cluster::IoClass io_class,
                                       cluster::Disk::CompletionFn done);

 private:
  cluster::Node& node_;
  std::vector<bool> stored_;  // bitmap by BlockId (the namespace numbers blocks densely)
  bool process_alive_ = true;
  bool partitioned_ = false;
};

}  // namespace dyrs::dfs
