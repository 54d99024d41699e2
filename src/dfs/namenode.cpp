#include "dfs/namenode.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace dyrs::dfs {

NameNode::NameNode(sim::Simulator& sim, Options opts,
                   std::unique_ptr<PlacementPolicy> placement)
    : sim_(sim),
      opts_(opts),
      ns_(opts.block_size),
      placement_(placement ? std::move(placement) : std::make_unique<RandomPlacement>()),
      placement_rng_(opts.placement_seed) {
  DYRS_CHECK(opts_.replication > 0);
  DYRS_CHECK(opts_.heartbeat_interval > 0);
  DYRS_CHECK(opts_.heartbeat_miss_limit > 0);
  if (opts_.auto_rereplicate) {
    DYRS_CHECK(opts_.rereplication_interval > 0);
    rereplication_timer_ =
        sim_.every(opts_.rereplication_interval, [this]() { rereplicate_once(); });
  }
}

NameNode::~NameNode() { rereplication_timer_.cancel(); }

void NameNode::register_datanode(DataNode* dn) {
  DYRS_CHECK(dn != nullptr);
  DYRS_CHECK_MSG(!datanodes_.count(dn->id()), "datanode " << dn->id() << " already registered");
  datanodes_[dn->id()] = dn;
  last_heartbeat_[dn->id()] = sim_.now();
}

DataNode* NameNode::datanode(NodeId id) {
  auto it = datanodes_.find(id);
  DYRS_CHECK_MSG(it != datanodes_.end(), "unknown datanode " << id);
  return it->second;
}

void NameNode::heartbeat(NodeId from) {
  DYRS_CHECK(datanodes_.count(from));
  last_heartbeat_[from] = sim_.now();
}

bool NameNode::available(NodeId id) const {
  auto it = last_heartbeat_.find(id);
  if (it == last_heartbeat_.end()) return false;
  const SimDuration silence = sim_.now() - it->second;
  return silence <= opts_.heartbeat_interval * opts_.heartbeat_miss_limit;
}

bool NameNode::serving(NodeId id) const {
  auto it = datanodes_.find(id);
  return it != datanodes_.end() && available(id) && it->second->serving();
}

const FileMeta& NameNode::create_file(const std::string& name, Bytes size) {
  DYRS_CHECK_MSG(!datanodes_.empty(), "no datanodes registered");
  const FileMeta& meta = ns_.create_file(name, size);
  std::vector<NodeId> candidates;
  for (const auto& [id, dn] : datanodes_) {
    if (available(id) && dn->serving()) candidates.push_back(id);
  }
  DYRS_CHECK_MSG(!candidates.empty(), "no available datanodes for " << name);
  // map iteration order over pointers is nondeterministic across runs in
  // principle; NodeId ordering keeps placement reproducible for a seed.
  std::sort(candidates.begin(), candidates.end());
  for (BlockId block : meta.blocks) {
    auto nodes = placement_->place(candidates, opts_.replication, placement_rng_);
    DYRS_CHECK(static_cast<std::size_t>(block.value()) == replicas_.size());
    replicas_.push_back(nodes);
    for (NodeId n : nodes) datanodes_[n]->add_block(block);
  }
  return meta;
}

std::vector<BlockId> NameNode::delete_file(const std::string& name) {
  auto blocks = ns_.delete_file(name);
  for (BlockId block : blocks) {
    auto& replicas = replicas_[static_cast<std::size_t>(block.value())];
    for (NodeId n : replicas) {
      auto it = datanodes_.find(n);
      if (it != datanodes_.end()) it->second->remove_block(block);
    }
    replicas.clear();
    memory_.erase(block);
  }
  return blocks;
}

std::vector<NodeId> NameNode::block_locations(BlockId block) const {
  const auto& all = raw_replicas(block);
  std::vector<NodeId> out;
  for (NodeId n : all) {
    if (serving(n)) out.push_back(n);
  }
  return out;
}

const std::vector<NodeId>& NameNode::raw_replicas(BlockId block) const {
  DYRS_CHECK(block.valid() && static_cast<std::size_t>(block.value()) < replicas_.size());
  return replicas_[static_cast<std::size_t>(block.value())];
}

void NameNode::register_memory_replica(BlockId block, NodeId node) {
  memory_[block].insert(node);
}

void NameNode::unregister_memory_replica(BlockId block, NodeId node) {
  auto it = memory_.find(block);
  if (it == memory_.end()) return;
  it->second.erase(node);
  if (it->second.empty()) memory_.erase(it);
}

void NameNode::drop_memory_replicas_on(NodeId node) {
  for (auto it = memory_.begin(); it != memory_.end();) {
    it->second.erase(node);
    if (it->second.empty()) {
      it = memory_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<NodeId> NameNode::memory_locations(BlockId block) const {
  std::vector<NodeId> out;
  auto it = memory_.find(block);
  if (it == memory_.end()) return out;
  for (NodeId n : it->second) {
    if (serving(n)) out.push_back(n);
  }
  std::sort(out.begin(), out.end());  // deterministic order
  return out;
}

bool NameNode::has_replica_on(BlockId block, NodeId node) const {
  const auto& disk = raw_replicas(block);
  if (std::find(disk.begin(), disk.end(), node) != disk.end()) return true;
  auto it = memory_.find(block);
  return it != memory_.end() && it->second.count(node) > 0;
}

std::vector<BlockId> NameNode::under_replicated_blocks() const {
  std::vector<BlockId> out;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const BlockId block(static_cast<std::int64_t>(i));
    if (ns_.block_deleted(block)) continue;
    if (replicas_[i].empty()) continue;  // deleted or never placed
    const auto live = block_locations(block);
    if (static_cast<int>(live.size()) < opts_.replication && !live.empty()) {
      out.push_back(block);
    }
  }
  return out;
}

int NameNode::rereplicate_once() {
  int started = 0;
  for (BlockId block : under_replicated_blocks()) {
    if (rereplicating_.count(block)) continue;
    const auto sources = block_locations(block);
    if (sources.empty()) continue;
    // Destination: an available datanode not already holding the block.
    const auto& raw = raw_replicas(block);
    NodeId dest = NodeId::invalid();
    std::vector<NodeId> candidates;
    for (const auto& [id, dn] : datanodes_) {
      if (!available(id) || !dn->serving()) continue;
      if (std::find(raw.begin(), raw.end(), id) != raw.end()) continue;
      candidates.push_back(id);
    }
    if (candidates.empty()) continue;
    std::sort(candidates.begin(), candidates.end());
    dest = candidates[static_cast<std::size_t>(placement_rng_.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1))];

    const NodeId source = sources.front();
    const Bytes size = ns_.block(block).size;
    rereplicating_.insert(block);
    ++started;
    // Pipeline: read from the source disk, then write on the destination.
    datanodes_[source]->node().disk().start_io(
        cluster::IoClass::TaskRead, size, [this, block, dest, size](SimTime) {
          auto dit = datanodes_.find(dest);
          if (dit == datanodes_.end() || !dit->second->serving()) {
            rereplicating_.erase(block);
            return;  // destination died mid-copy; retried next pass
          }
          dit->second->node().disk().start_io(
              cluster::IoClass::Write, size, [this, block, dest](SimTime) {
                rereplicating_.erase(block);
                if (ns_.block_deleted(block)) return;
                auto dit2 = datanodes_.find(dest);
                if (dit2 == datanodes_.end() || !dit2->second->serving()) return;
                dit2->second->add_block(block);
                replicas_[static_cast<std::size_t>(block.value())].push_back(dest);
                ++rereplications_completed_;
              });
        });
  }
  return started;
}

std::size_t NameNode::memory_replica_count() const {
  std::size_t n = 0;
  for (const auto& [block, nodes] : memory_) n += nodes.size();
  return n;
}

std::vector<std::pair<BlockId, NodeId>> NameNode::memory_replica_entries() const {
  std::vector<std::pair<BlockId, NodeId>> out;
  out.reserve(memory_replica_count());
  for (const auto& [block, nodes] : memory_) {
    for (NodeId n : nodes) out.emplace_back(block, n);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dyrs::dfs
