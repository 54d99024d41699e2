#include "core/pending_queue.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dyrs::core {

PendingQueue::iterator PendingQueue::find(BlockId block) {
  auto it = index_.find(block);
  return it == index_.end() ? list_.end() : it->second;
}

PendingMigration* PendingQueue::lookup(BlockId block) {
  auto it = index_.find(block);
  return it == index_.end() ? nullptr : &*it->second;
}

PendingMigration& PendingQueue::push(PendingMigration pm) {
  DYRS_CHECK_MSG(!contains(pm.block), "block " << pm.block << " already pending");
  Entry& e = list_.emplace_back(std::move(pm));
  e.self_ = std::prev(list_.end());
  index_[e.block] = e.self_;
  return e;
}

PendingQueue::iterator PendingQueue::erase(iterator it) {
  unlink(*it);
  index_.erase(it->block);
  return list_.erase(it);
}

bool PendingQueue::erase(BlockId block) {
  auto it = index_.find(block);
  if (it == index_.end()) return false;
  unlink(*it->second);
  list_.erase(it->second);
  index_.erase(it);
  return true;
}

void PendingQueue::clear() {
  list_.clear();
  index_.clear();
  std::fill(heads_.begin(), heads_.end(), nullptr);
}

void PendingQueue::unlink(Entry& e) {
  if (!e.filed_.valid()) return;
  (e.prev_ != nullptr ? e.prev_->next_ : heads_[static_cast<std::size_t>(e.filed_.value())]) =
      e.next_;
  if (e.next_ != nullptr) e.next_->prev_ = e.prev_;
  e.prev_ = e.next_ = nullptr;
  e.filed_ = NodeId::invalid();
}

void PendingQueue::refile(Entry& e) {
  if (!e.target.valid()) {
    unlink(e);
    return;
  }
  const auto id = static_cast<std::size_t>(e.target.value());
  if (id >= heads_.size()) {
    heads_.resize(id + 1, nullptr);
    last_filed_.resize(id + 1, nullptr);
  }
  Entry* after = last_filed_[id];
  if (e.filed_ != e.target || e.prev_ != after) {
    // Entries this pass already filed here precede `e`; the rest follow.
    unlink(e);
    Entry*& link = after != nullptr ? after->next_ : heads_[id];
    e.prev_ = after;
    e.next_ = link;
    if (e.next_ != nullptr) e.next_->prev_ = &e;
    link = &e;
    e.filed_ = e.target;
  }
  last_filed_[id] = &e;
}

std::vector<PendingQueue::iterator> PendingQueue::in_order(Ordering ordering) {
  std::vector<iterator> order;
  order.reserve(list_.size());
  for (auto it = list_.begin(); it != list_.end(); ++it) order.push_back(it);
  if (ordering == Ordering::SmallestJobFirst && order.size() > 1) {
    std::unordered_map<JobId, Bytes> outstanding;
    for (const auto& pm : list_) {
      for (const auto& [job, mode] : pm.jobs) outstanding[job] += pm.size;
    }
    auto key = [&outstanding](const PendingMigration& pm) {
      Bytes best = std::numeric_limits<Bytes>::max();
      for (const auto& [job, mode] : pm.jobs) best = std::min(best, outstanding[job]);
      return best;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&key](const auto& a, const auto& b) { return key(*a) < key(*b); });
  }
  return order;
}

}  // namespace dyrs::core
