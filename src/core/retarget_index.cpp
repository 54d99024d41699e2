#include "core/retarget_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dyrs::core {

void FinishTimeHeap::rebuild(const std::unordered_map<NodeId, double>& loads) {
  std::vector<Item> items;
  items.reserve(loads.size());
  for (const auto& [node, finish] : loads) items.push_back({finish, node.value()});
  heap_ = std::priority_queue<Item, std::vector<Item>, std::greater<Item>>(
      std::greater<Item>{}, std::move(items));
}

void FinishTimeHeap::update(NodeId node, double finish_s) {
  heap_.push({finish_s, node.value()});
}

std::pair<NodeId, double> FinishTimeHeap::min(const std::unordered_map<NodeId, double>& loads) {
  if (loads.empty()) return {NodeId::invalid(), 0.0};
  while (true) {
    if (heap_.empty()) rebuild(loads);
    const Item top = heap_.top();
    auto it = loads.find(NodeId(top.node));
    if (it != loads.end() && it->second == top.finish) return {NodeId(top.node), top.finish};
    heap_.pop();  // stale: superseded by a later assignment or basis refresh
  }
}

void RetargetIndex::note_append(const PendingQueue& queue, BlockId block) {
  const std::uint64_t muts = queue.mutation_count();
  if (muts != synced_mutations_ + 1) valid_ = false;  // untracked churn slipped in
  synced_mutations_ = muts;
  if (!valid_) return;
  if (!appended_set_.insert(block).second) {
    // enqueue -> bind -> requeue of one block inside a single inter-pass
    // window: the recorded append order no longer matches the live queue
    // order, so the cache rebuilds from the queue at the next pass.
    rebuild_ = true;
    return;
  }
  appended_.push_back(block);
}

void RetargetIndex::note_mutate(BlockId block) {
  if (!valid_) return;
  auto it = pos_.find(block);
  if (it != pos_.end()) {
    first_dirty_ = std::min(first_dirty_, it->second);
    return;
  }
  // Appended-but-unscored entries get scored this pass anyway; anything
  // else means the bookkeeping lost track of the entry — rebuild.
  if (appended_set_.count(block) == 0) rebuild_ = true;
}

void RetargetIndex::note_erase(const PendingQueue& queue, BlockId block) {
  const std::uint64_t muts = queue.mutation_count();
  if (muts != synced_mutations_ + 1) valid_ = false;
  synced_mutations_ = muts;
  if (!valid_) return;
  auto it = pos_.find(block);
  if (it == pos_.end()) return;  // appended-but-unscored: the drain skips it
  Scored& sc = order_[it->second];
  sc.live = false;
  if (sc.target.valid()) {
    --n_assigned_;
  } else {
    --n_untargetable_;
  }
  // The erased entry's load contribution disappears, so every later
  // greedy choice may shift: dirty from here.
  first_dirty_ = std::min(first_dirty_, it->second);
  pos_.erase(it);
}

bool RetargetIndex::basis_compatible(const std::vector<SlaveSnapshot>& snapshots,
                                     const RetargetConfig& config) const {
  if (basis_spb_.empty()) return false;
  const bool exact = config.estimate_threshold <= 0.0 && config.queued_threshold <= 0.0;
  // Exact mode insists on set equality; with thresholds a node that left
  // the snapshot set (declared dead) lingers at its last-known estimate.
  if (exact && snapshots.size() != basis_spb_.size()) return false;
  for (const SlaveSnapshot& s : snapshots) {
    auto spb = basis_spb_.find(s.node);
    if (spb == basis_spb_.end()) return false;  // new or rejoined node
    if (std::abs(s.sec_per_byte - spb->second) > config.estimate_threshold * spb->second) {
      return false;
    }
    const double base_q = static_cast<double>(basis_queued_.at(s.node));
    const double delta_q = std::abs(static_cast<double>(s.queued_bytes) - base_q);
    if (delta_q > config.queued_threshold * std::max(base_q, 1.0)) return false;
  }
  return true;
}

void RetargetIndex::refresh_basis(const std::vector<SlaveSnapshot>& snapshots) {
  basis_spb_.clear();
  basis_load_.clear();
  basis_queued_.clear();
  basis_spb_.reserve(snapshots.size());
  basis_load_.reserve(snapshots.size());
  basis_queued_.reserve(snapshots.size());
  for (const SlaveSnapshot& s : snapshots) {
    DYRS_CHECK_MSG(s.sec_per_byte > 0.0, "slave " << s.node << " reported non-positive rate");
    basis_spb_[s.node] = s.sec_per_byte;
    basis_load_[s.node] = s.sec_per_byte * static_cast<double>(s.queued_bytes);
    basis_queued_[s.node] = s.queued_bytes;
  }
}

void RetargetIndex::reset_order() {
  order_.clear();
  pos_.clear();
  appended_.clear();
  appended_set_.clear();
  first_dirty_ = kClean;
  rebuild_ = false;
  n_assigned_ = 0;
  n_untargetable_ = 0;
  loads_ = basis_load_;
}

void RetargetIndex::score_into(PendingMigration& pm) {
  const NodeId before = pm.target;
  NodeId best = NodeId::invalid();
  double best_finish = 0.0;
  for (NodeId loc : pm.replicas) {
    if (std::find(pm.avoid.begin(), pm.avoid.end(), loc) != pm.avoid.end()) {
      continue;  // replica returned persistent I/O errors or is unreachable
    }
    auto rate = basis_spb_.find(loc);
    if (rate == basis_spb_.end()) continue;  // replica host not in the scoring basis
    const double finish = loads_[loc] + rate->second * static_cast<double>(pm.size);
    if (!best.valid() || finish < best_finish) {
      best = loc;
      best_finish = finish;
    }
  }
  pm.target = best;
  if (best.valid()) {
    loads_[best] = best_finish;
    ++n_assigned_;
  } else {
    ++n_untargetable_;
  }
  pos_[pm.block] = order_.size();
  order_.push_back({pm.block, best, best_finish, true});
  ++pass_rescored_;
  if (emitter_ != nullptr && best.valid() && best != before) {
    emitter_->target(now_, pm.block, best, basis_spb_.find(best)->second);
  }
}

void RetargetIndex::full_rescore(PendingQueue& queue, Ordering ordering,
                                 const std::vector<SlaveSnapshot>& snapshots) {
  refresh_basis(snapshots);
  reset_order();
  order_.reserve(queue.size());
  pos_.reserve(queue.size());
  queue.visit(ordering, [&](PendingQueue::iterator it) {
    score_into(*it);
    return true;
  });
  heap_.rebuild(loads_);
  ++stats_.full_rescores;
}

void RetargetIndex::incremental(PendingQueue& queue) {
  if (rebuild_) {
    reset_order();
    for (PendingMigration& pm : queue) score_into(pm);
    heap_.rebuild(loads_);
    return;
  }
  const bool dirty = first_dirty_ != kClean;
  if (dirty) {
    // Replay the clean prefix from the cache (finish times are stored
    // absolute, so the replay is bit-exact), then re-score from the dirty
    // frontier in the original pass order — tombstones drop out exactly
    // as a reference sweep over the current queue would see them.
    const std::size_t k = std::min(first_dirty_, order_.size());
    std::vector<Scored> suffix(order_.begin() + static_cast<std::ptrdiff_t>(k), order_.end());
    order_.resize(k);
    loads_ = basis_load_;
    for (const Scored& sc : order_) {
      if (sc.target.valid()) loads_[sc.target] = sc.finish;
    }
    for (const Scored& sc : suffix) {
      if (!sc.live) continue;
      if (sc.target.valid()) {
        --n_assigned_;
      } else {
        --n_untargetable_;
      }
      pos_.erase(sc.block);
    }
    for (const Scored& sc : suffix) {
      if (!sc.live) continue;
      PendingMigration* pm = queue.lookup(sc.block);
      DYRS_CHECK_MSG(pm != nullptr, "cached entry " << sc.block << " vanished untracked");
      score_into(*pm);
    }
    first_dirty_ = kClean;
  }
  const std::vector<BlockId> appended = std::move(appended_);
  appended_.clear();
  appended_set_.clear();
  for (BlockId block : appended) {
    if (pos_.count(block) != 0) continue;  // already scored this pass
    PendingMigration* pm = queue.lookup(block);
    if (pm == nullptr) continue;  // erased again before this pass
    score_into(*pm);
    if (!dirty && pm->target.valid()) heap_.update(pm->target, loads_[pm->target]);
  }
  if (dirty || heap_.size() > 2 * loads_.size() + 64) heap_.rebuild(loads_);
}

TargetingStats RetargetIndex::pass(PendingQueue& queue, Ordering ordering,
                                   const RetargetConfig& config,
                                   const std::vector<SlaveSnapshot>& snapshots, SimTime now,
                                   LifecycleEmitter* emitter) {
  ++stats_.passes;
  emitter_ = emitter;
  now_ = now;
  pass_rescored_ = 0;
  const bool structural_ok = valid_ && queue.mutation_count() == synced_mutations_;
  // SJF priorities are global (a job's outstanding bytes shift with every
  // queue change), so prefix caching is unsound — non-FIFO always sweeps.
  if (!structural_ok || ordering != Ordering::Fifo || !basis_compatible(snapshots, config)) {
    full_rescore(queue, ordering, snapshots);
  } else {
    if (rebuild_ || first_dirty_ != kClean) {
      ++stats_.suffix_rescores;
    } else if (!appended_.empty()) {
      ++stats_.tail_extensions;
    } else {
      ++stats_.noop_passes;
    }
    incremental(queue);
  }
  emitter_ = nullptr;
  stats_.entries_rescored += pass_rescored_;
  stats_.entries_reused += (n_assigned_ + n_untargetable_) - pass_rescored_;
  valid_ = true;
  synced_mutations_ = queue.mutation_count();
  return {.assigned = n_assigned_, .untargetable = n_untargetable_};
}

bool RetargetIndex::self_check(const PendingQueue& queue) const {
  if (!valid_ || queue.mutation_count() != synced_mutations_ || rebuild_) return true;
  const std::size_t limit = std::min(first_dirty_, order_.size());
  for (std::size_t i = 0; i < limit; ++i) {
    if (!order_[i].live) return false;  // tombstone escaped the dirty frontier
  }
  for (const auto& [block, idx] : pos_) {
    if (idx >= order_.size()) return false;
    if (order_[idx].block != block || !order_[idx].live) return false;
    if (!queue.contains(block)) return false;  // dangling cached reference
  }
  if (n_assigned_ + n_untargetable_ != pos_.size()) return false;
  for (const PendingMigration& pm : queue) {
    if (pos_.count(pm.block) == 0 && appended_set_.count(pm.block) == 0) return false;
  }
  return true;
}

}  // namespace dyrs::core
