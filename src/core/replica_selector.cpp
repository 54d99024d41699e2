#include "core/replica_selector.h"

#include <algorithm>

#include "common/check.h"

namespace dyrs::core {

void TargetScorer::clear() {
  for (std::size_t id : touched_) slot_of_[id] = 0;
  touched_.clear();
  sec_per_byte_.clear();
  load_seconds_.clear();
  stats_ = {};
}

void TargetScorer::start(const std::vector<SlaveSnapshot>& slaves) {
  clear();
  fetch_ = nullptr;
  for (const auto& s : slaves) {
    DYRS_CHECK_MSG(s.node.valid(), "snapshot for an invalid node");
    set_slot(static_cast<std::size_t>(s.node.value()), add(s));
  }
  stats_.snapshot_nodes = slaves.size();
}

void TargetScorer::start(const Fetch& fetch) {
  clear();
  fetch_ = &fetch;
}

void TargetScorer::set_slot(std::size_t id, std::size_t slot) {
  if (id >= slot_of_.size()) slot_of_.resize(id + 1, 0);
  slot_of_[id] = slot;
  touched_.push_back(id);
}

std::size_t TargetScorer::add(const SlaveSnapshot& s) {
  DYRS_CHECK_MSG(s.sec_per_byte > 0.0, "slave " << s.node << " reported non-positive rate");
  sec_per_byte_.push_back(s.sec_per_byte);
  load_seconds_.push_back(s.sec_per_byte * static_cast<double>(s.queued_bytes));
  return sec_per_byte_.size();
}

std::size_t TargetScorer::slot_of(NodeId node) {
  if (!node.valid()) return kSilent;
  const auto id = static_cast<std::size_t>(node.value());
  const std::size_t slot = id < slot_of_.size() ? slot_of_[id] : 0;
  if (slot != 0) return slot;
  if (fetch_ == nullptr) return kSilent;  // every snapshot came up front
  SlaveSnapshot s;
  ++stats_.snapshot_nodes;
  set_slot(id, (*fetch_)(node, s) ? add(s) : kSilent);
  return slot_of_[id];
}

double TargetScorer::assign(PendingMigration& block) {
  block.target = NodeId::invalid();
  std::size_t best = 0;
  double best_finish = 0.0;
  for (NodeId loc : block.replicas) {
    if (std::find(block.avoid.begin(), block.avoid.end(), loc) != block.avoid.end()) {
      continue;  // replica returned persistent I/O errors or is unreachable
    }
    const std::size_t slot = slot_of(loc);
    if (slot == kSilent) continue;  // replica host not reporting
    const std::size_t i = slot - 1;
    const double finish = load_seconds_[i] + sec_per_byte_[i] * static_cast<double>(block.size);
    if (!block.target.valid() || finish < best_finish) {
      block.target = loc;
      best = i;
      best_finish = finish;
    }
  }
  if (!block.target.valid()) {
    ++stats_.untargetable;
    return 0.0;
  }
  load_seconds_[best] = best_finish;
  ++stats_.assigned;
  return sec_per_byte_[best];
}

TargetingStats assign_targets(std::vector<PendingMigration*>& pending,
                              const std::vector<SlaveSnapshot>& slaves) {
  TargetScorer scorer(slaves);
  for (PendingMigration* block : pending) {
    DYRS_CHECK(block != nullptr);
    scorer.assign(*block);
  }
  return scorer.stats();
}

}  // namespace dyrs::core
