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

const NameNode::Member* NameNode::member(NodeId id) const {
  const auto i = static_cast<std::size_t>(id.value());
  if (!id.valid() || i >= members_.size() || members_[i].dn == nullptr) return nullptr;
  return &members_[i];
}

bool NameNode::heard_recently(const Member& m) const {
  return sim_.now() - m.last_heartbeat <= opts_.heartbeat_interval * opts_.heartbeat_miss_limit;
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
    std::vector<NodeId> candidates;  // ascending
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const NodeId id(static_cast<std::int64_t>(i));
      if (!serving(id)) continue;
      if (std::find(raw.begin(), raw.end(), id) != raw.end()) continue;
      candidates.push_back(id);
    }
    if (candidates.empty()) continue;
    dest = candidates[static_cast<std::size_t>(placement_rng_.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1))];

    const NodeId source = sources.front();
    const Bytes size = ns_.block(block).size;
    rereplicating_.insert(block);
    ++started;
    // Pipeline: read from the source disk, then write on the destination.
    datanode(source)->node().disk().start_io(
        cluster::IoClass::TaskRead, size, [this, block, dest, size](SimTime) {
          const Member* d = member(dest);
          if (d == nullptr || !d->dn->serving()) {
            rereplicating_.erase(block);
            return;  // destination died mid-copy; retried next pass
          }
          d->dn->node().disk().start_io(
              cluster::IoClass::Write, size, [this, block, dest](SimTime) {
                rereplicating_.erase(block);
                if (ns_.block_deleted(block)) return;
                const Member* d2 = member(dest);
                if (d2 == nullptr || !d2->dn->serving()) return;
                d2->dn->add_block(block);
                replicas_[static_cast<std::size_t>(block.value())].push_back(dest);
                ++rereplications_completed_;
              });
        });
  }
  return started;
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
