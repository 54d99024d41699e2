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
}

const NameNode::Member* NameNode::member(NodeId id) const {
  const auto i = static_cast<std::size_t>(id.value());
  if (!id.valid() || i >= members_.size() || members_[i].dn == nullptr) return nullptr;
  return &members_[i];
}

bool NameNode::heard_recently(const Member& m) const {
  return sim_.now() - m.last_heartbeat <= opts_.heartbeat_interval * kHeartbeatMissLimit;
}

void NameNode::register_datanode(DataNode* dn) {
  DYRS_CHECK(dn != nullptr);
  const NodeId id = dn->id();
  DYRS_CHECK_MSG(id.valid(), "datanode with invalid id");
  DYRS_CHECK_MSG(member(id) == nullptr, "datanode " << id << " already registered");
  const auto i = static_cast<std::size_t>(id.value());
  if (i >= members_.size()) members_.resize(i + 1);
  members_[i] = {.dn = dn, .last_heartbeat = sim_.now()};
  ++datanode_count_;
}

DataNode* NameNode::datanode(NodeId id) {
  const Member* m = member(id);
  DYRS_CHECK_MSG(m != nullptr, "unknown datanode " << id);
  return m->dn;
}

void NameNode::heartbeat(NodeId from) {
  DYRS_CHECK(member(from) != nullptr);
  members_[static_cast<std::size_t>(from.value())].last_heartbeat = sim_.now();
}

bool NameNode::available(NodeId id) const {
  const Member* m = member(id);
  return m != nullptr && heard_recently(*m);
}

bool NameNode::serving(NodeId id) const {
  const Member* m = member(id);
  return m != nullptr && heard_recently(*m) && m->dn->serving();
}

const FileMeta& NameNode::create_file(const std::string& name, Bytes size) {
  DYRS_CHECK_MSG(datanode_count_ > 0, "no datanodes registered");
  const FileMeta& meta = ns_.create_file(name, size);
  std::vector<NodeId> candidates;  // ascending, so placement is seed-reproducible
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const NodeId id(static_cast<std::int64_t>(i));
    if (serving(id)) candidates.push_back(id);
  }
  DYRS_CHECK_MSG(!candidates.empty(), "no available datanodes for " << name);
  for (BlockId block : meta.blocks) {
    auto nodes = placement_->place(candidates, opts_.replication, placement_rng_);
    DYRS_CHECK(static_cast<std::size_t>(block.value()) == replicas_.size());
    for (NodeId n : nodes) datanode(n)->add_block(block);
    replicas_.push_back(nodes);  // a copy: `nodes` may keep every candidate's capacity
    memory_.emplace_back();
  }
  return meta;
}

std::vector<BlockId> NameNode::delete_file(const std::string& name) {
  auto blocks = ns_.delete_file(name);
  for (BlockId block : blocks) {
    const auto b = static_cast<std::size_t>(block.value());
    for (NodeId n : replicas_[b]) {
      if (const Member* m = member(n)) m->dn->remove_block(block);
    }
    replicas_[b].clear();
    memory_count_ -= memory_[b].size();
    memory_[b].clear();
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
  DYRS_CHECK_MSG(block.valid() && static_cast<std::size_t>(block.value()) < memory_.size(),
                 "unknown block " << block);
  auto& holders = memory_[static_cast<std::size_t>(block.value())];
  auto it = std::lower_bound(holders.begin(), holders.end(), node);
  if (it != holders.end() && *it == node) return;
  holders.insert(it, node);
  ++memory_count_;
}

void NameNode::unregister_memory_replica(BlockId block, NodeId node) {
  const auto b = static_cast<std::size_t>(block.value());
  if (!block.valid() || b >= memory_.size()) return;
  auto& holders = memory_[b];
  auto it = std::lower_bound(holders.begin(), holders.end(), node);
  if (it == holders.end() || *it != node) return;
  holders.erase(it);
  --memory_count_;
}

void NameNode::drop_memory_replicas_on(NodeId node) {
  for (auto& holders : memory_) {
    if (memory_count_ == 0) return;
    auto it = std::lower_bound(holders.begin(), holders.end(), node);
    if (it == holders.end() || *it != node) continue;
    holders.erase(it);
    --memory_count_;
  }
}

void NameNode::clear_memory_replicas() {
  for (auto& holders : memory_) holders.clear();
  memory_count_ = 0;
}

std::vector<NodeId> NameNode::memory_locations(BlockId block) const {
  std::vector<NodeId> out;
  const auto b = static_cast<std::size_t>(block.value());
  if (!block.valid() || b >= memory_.size()) return out;
  for (NodeId n : memory_[b]) {
    if (serving(n)) out.push_back(n);
  }
  return out;  // ascending: each holder list is sorted
}

bool NameNode::has_replica_on(BlockId block, NodeId node) const {
  const auto& disk = raw_replicas(block);
  if (std::find(disk.begin(), disk.end(), node) != disk.end()) return true;
  const auto& memory = memory_[static_cast<std::size_t>(block.value())];
  return std::binary_search(memory.begin(), memory.end(), node);
}

std::vector<std::pair<BlockId, NodeId>> NameNode::memory_replica_entries() const {
  std::vector<std::pair<BlockId, NodeId>> out;
  out.reserve(memory_count_);
  for (std::size_t b = 0; b < memory_.size(); ++b) {
    for (NodeId n : memory_[b]) out.emplace_back(BlockId(static_cast<std::int64_t>(b)), n);
  }
  return out;  // sorted: blocks ascend, and each holder list is sorted
}

}  // namespace dyrs::dfs
