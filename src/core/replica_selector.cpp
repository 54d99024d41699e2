#include "core/replica_selector.h"

#include <algorithm>

#include "common/check.h"

namespace dyrs::core {

TargetScorer::TargetScorer(const std::vector<SlaveSnapshot>& slaves) {
  sec_per_byte_.reserve(slaves.size());
  load_seconds_.reserve(slaves.size());
  for (const auto& s : slaves) {
    DYRS_CHECK_MSG(s.sec_per_byte > 0.0, "slave " << s.node << " reported non-positive rate");
    DYRS_CHECK_MSG(s.node.valid(), "snapshot for an invalid node");
    const auto id = static_cast<std::size_t>(s.node.value());
    if (id >= slot_of_.size()) slot_of_.resize(id + 1, 0);
    sec_per_byte_.push_back(s.sec_per_byte);
    load_seconds_.push_back(s.sec_per_byte * static_cast<double>(s.queued_bytes));
    slot_of_[id] = sec_per_byte_.size();
  }
}

double TargetScorer::assign(PendingMigration& block) {
  block.target = NodeId::invalid();
  std::size_t best = 0;
  double best_finish = 0.0;
  for (NodeId loc : block.replicas) {
    if (std::find(block.avoid.begin(), block.avoid.end(), loc) != block.avoid.end()) {
      continue;  // replica returned persistent I/O errors or is unreachable
    }
    const auto id = static_cast<std::size_t>(loc.value());
    if (!loc.valid() || id >= slot_of_.size() || slot_of_[id] == 0) {
      continue;  // replica host not reporting
    }
    const std::size_t i = slot_of_[id] - 1;
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
