#include "faults/invariant_checker.h"

#include <set>
#include <sstream>

#include "common/log.h"
#include "dfs/datanode.h"

namespace dyrs::faults {
namespace {

constexpr SimDuration kCheckPeriod = seconds(1);

}  // namespace

ClusterInvariantChecker::ClusterInvariantChecker(sim::Simulator& sim, cluster::Cluster& cluster,
                                                 dfs::NameNode& namenode,
                                                 core::MigrationMaster* master)
    : sim_(sim), cluster_(cluster), namenode_(namenode), master_(master) {
  if (master_ != nullptr) {
    const SimDuration pulse = master_->config().slave.heartbeat_interval;
    rebuild_grace_ = pulse * 2 + seconds(1);
    detection_grace_ =
        namenode_.options().heartbeat_interval * (dfs::NameNode::kHeartbeatMissLimit + 1) +
        rebuild_grace_;
  }
  timer_ = sim_.every(kCheckPeriod, [this]() { check_now("periodic"); });
}

ClusterInvariantChecker::~ClusterInvariantChecker() { timer_.cancel(); }

void ClusterInvariantChecker::violate(const std::string& invariant, const std::string& detail) {
  std::ostringstream os;
  os << detail << " [" << context_ << "]";
  violations_.push_back({.at = sim_.now(), .invariant = invariant, .detail = os.str()});
  DYRS_LOG(Error, "invariants") << invariant << ": " << os.str();
}

void ClusterInvariantChecker::check_now(const std::string& context) {
  ++checks_run_;
  context_ = context;

  if (master_ == nullptr) {
    // Non-master schemes (HDFS, inputs-in-RAM): only the registry-shape
    // invariant applies — every registered replica names a known node whose
    // stale entries the read path can skip. Memory-capacity safety is
    // enforced by Memory::pin itself.
    for (const auto& [block, node] : namenode_.memory_replica_entries()) {
      namenode_.datanode(node);  // DYRS_CHECKs the node is registered
    }
    return;
  }

  const auto memory_entries = namenode_.memory_replica_entries();
  const auto bound = master_->bound_migrations();

  // 1. Registry/buffer agreement. Forward: registered => buffered on a
  // live process (crash cleanup is synchronous, so no grace needed).
  for (const auto& [block, node] : memory_entries) {
    const auto& sl = master_->slave(node);
    std::ostringstream os;
    os << "block " << block << " registered in-memory on node " << node;
    if (!sl.datanode().process_alive()) {
      violate("memory-replica-process-alive", os.str() + " whose process is dead");
    } else if (!sl.buffers().contains(block)) {
      violate("memory-replica-buffered", os.str() + " but not buffered there");
    }
  }
  // Reverse: buffered => registered. Skipped during the post-failover
  // rebuild window (registry re-populates on the next pulse) and for
  // unreachable nodes (a partition spanning a failover can legitimately
  // leave buffers the rebuilt registry no longer knows).
  if (!master_->rebuilding()) {
    std::set<std::pair<BlockId, NodeId>> registered(memory_entries.begin(),
                                                    memory_entries.end());
    for (NodeId id : cluster_.node_ids()) {
      const auto& sl = master_->slave(id);
      const dfs::DataNode& dn = sl.datanode();
      if (!dn.process_alive() || dn.partitioned() || !namenode_.available(id)) continue;
      for (BlockId block : sl.buffers().buffered_blocks()) {
        if (sl.has_local_migration(block)) continue;  // in-flight reservation
        if (!registered.count({block, id})) {
          std::ostringstream os;
          os << "block " << block << " buffered on node " << id << " but not registered";
          violate("buffered-registered", os.str());
        }
      }
    }
  }

  // 2. Bound-migration targets. Strict: the target's process is alive and
  // the slave really holds the migration. With grace: the target has not
  // been unreachable (partitioned / silent) past the detection window.
  std::unordered_map<BlockId, SimTime> still_unreachable;
  for (const auto& [block, node] : bound) {
    const auto& sl = master_->slave(node);
    std::ostringstream os;
    os << "block " << block << " bound to node " << node;
    if (!sl.datanode().process_alive()) {
      violate("bound-target-process-alive", os.str() + " whose process is dead");
      continue;
    }
    if (!sl.has_local_migration(block)) {
      violate("bound-held-by-slave", os.str() + " but the slave has no such migration");
    }
    if (!sl.datanode().has_block(block)) {
      violate("bound-target-has-replica", os.str() + " which holds no disk replica of it");
    }
    if (sl.datanode().partitioned() || !namenode_.available(node)) {
      auto it = unreachable_since_.find(block);
      const SimTime since = it == unreachable_since_.end() ? sim_.now() : it->second;
      still_unreachable[block] = since;
      if (sim_.now() - since > detection_grace_) {
        violate("bound-target-reachable",
                os.str() + " which has been unreachable past the detection grace");
      }
    }
  }
  unreachable_since_ = std::move(still_unreachable);

  // 3. Buffer accounting. Migration buffers are the only pinning client in
  // master-based schemes, so pinned memory must equal buffered bytes.
  for (NodeId id : cluster_.node_ids()) {
    const auto& sl = master_->slave(id);
    const cluster::Memory& mem = cluster_.node(id).memory();
    std::ostringstream os;
    os << "node " << id << ": buffered=" << sl.buffers().used() << " limit="
       << sl.buffers().limit() << " pinned=" << mem.pinned() << " capacity=" << mem.capacity();
    if (sl.buffers().used() > sl.buffers().limit()) {
      violate("buffer-within-limit", os.str());
    }
    if (mem.pinned() > mem.capacity()) {
      violate("memory-within-capacity", os.str());
    }
    if (mem.pinned() != sl.buffers().used()) {
      violate("pinned-equals-buffered", os.str());
    }
  }

  // 4. Pending and bound are disjoint.
  {
    std::set<BlockId> bound_blocks;
    for (const auto& [block, node] : bound) bound_blocks.insert(block);
    for (BlockId block : master_->pending_blocks()) {
      if (bound_blocks.count(block)) {
        std::ostringstream os;
        os << "block " << block << " is both pending and bound";
        violate("pending-bound-disjoint", os.str());
      }
    }
  }

  // 5. The failover rebuild flag clears within one master pulse.
  if (master_->rebuilding()) {
    if (rebuilding_since_ < 0) rebuilding_since_ = sim_.now();
    if (sim_.now() - rebuilding_since_ > rebuild_grace_) {
      violate("rebuilding-clears", "master still rebuilding past the grace window");
    }
  } else {
    rebuilding_since_ = -1;
  }
}

}  // namespace dyrs::faults
