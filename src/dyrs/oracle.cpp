#include "dyrs/oracle.h"

#include <limits>

#include "common/log.h"

namespace dyrs::core {

void OracleInRam::migrate_blocks(JobId job, const std::vector<BlockId>& blocks,
                                 EvictionMode /*mode*/) {
  for (BlockId block : blocks) {
    const Bytes size = namenode_.ns().block(block).size;
    for (NodeId node : namenode_.raw_replicas(block)) pin_replica(job, block, node, size);
  }
}

void OracleInRam::pin_replica(JobId job, BlockId block, NodeId node, Bytes size) {
  auto key = std::make_pair(block, node);
  auto it = pinned_.find(key);
  if (it != pinned_.end()) {
    it->second.insert(job);
    return;
  }
  if (!cluster_.node(node).memory().pin(size)) {
    DYRS_LOG(Warn, "oracle") << "node " << node << " out of memory pinning block " << block;
    return;
  }
  pinned_[key].insert(job);
  namenode_.register_memory_replica(block, node);
}

void OracleInRam::on_blocks_deleted(const std::vector<BlockId>& blocks) {
  for (BlockId block : blocks) {
    for (auto it = pinned_.lower_bound({block, NodeId(std::numeric_limits<std::int64_t>::min())});
         it != pinned_.end() && it->first.first == block;) {
      cluster_.node(it->first.second).memory().unpin(namenode_.ns().block(block).size);
      it = pinned_.erase(it);
    }
  }
}

void OracleInRam::evict_job(JobId job) {
  for (auto it = pinned_.begin(); it != pinned_.end();) {
    it->second.erase(job);
    if (it->second.empty()) {
      const auto [block, node] = it->first;
      cluster_.node(node).memory().unpin(namenode_.ns().block(block).size);
      namenode_.unregister_memory_replica(block, node);
      it = pinned_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dyrs::core
