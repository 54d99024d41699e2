#include "core/retarget_index.h"

#include <algorithm>
#include <cmath>
#include <thread>

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

void RetargetIndex::ensure_shards(int shards) {
  const std::size_t n = shards < 1 ? 1 : static_cast<std::size_t>(shards);
  if (shards_.size() == n) return;
  shards_ = std::vector<Shard>(n);
  valid_ = false;
}

void RetargetIndex::note_append(const PendingQueue& queue, BlockId block) {
  const std::uint64_t muts = queue.mutation_count();
  if (muts != synced_mutations_ + 1) valid_ = false;  // untracked churn slipped in
  synced_mutations_ = muts;
  if (!valid_) return;
  Shard& sh = shards_[shard_of(block)];
  if (!sh.appended_set.insert(block).second) {
    // enqueue -> bind -> requeue of one block inside a single inter-pass
    // window: the recorded append order no longer matches the live queue
    // order, so this shard rebuilds from the queue at the next pass.
    sh.rebuild = true;
    return;
  }
  sh.appended.push_back(block);
}

void RetargetIndex::note_mutate(BlockId block) {
  if (!valid_) return;
  Shard& sh = shards_[shard_of(block)];
  auto it = sh.pos.find(block);
  if (it != sh.pos.end()) {
    sh.first_dirty = std::min(sh.first_dirty, it->second);
    return;
  }
  // Appended-but-unscored entries get scored this pass anyway; anything
  // else means the bookkeeping lost track of the entry — rebuild.
  if (sh.appended_set.count(block) == 0) sh.rebuild = true;
}

void RetargetIndex::note_erase(const PendingQueue& queue, BlockId block) {
  const std::uint64_t muts = queue.mutation_count();
  if (muts != synced_mutations_ + 1) valid_ = false;
  synced_mutations_ = muts;
  if (!valid_) return;
  Shard& sh = shards_[shard_of(block)];
  auto it = sh.pos.find(block);
  if (it == sh.pos.end()) return;  // appended-but-unscored: the drain skips it
  Scored& sc = sh.order[it->second];
  sc.live = false;
  if (sc.target.valid()) {
    --sh.n_assigned;
  } else {
    --sh.n_untargetable;
  }
  // The erased entry's load contribution disappears, so every later
  // greedy choice may shift: dirty from here.
  sh.first_dirty = std::min(sh.first_dirty, it->second);
  sh.pos.erase(it);
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

void RetargetIndex::score_into(PendingMigration& pm, Shard& sh, std::vector<Emission>& emits) {
  const NodeId before = pm.target;
  NodeId best = NodeId::invalid();
  double best_finish = 0.0;
  for (NodeId loc : pm.replicas) {
    if (std::find(pm.avoid.begin(), pm.avoid.end(), loc) != pm.avoid.end()) {
      continue;  // replica returned persistent I/O errors or is unreachable
    }
    auto rate = basis_spb_.find(loc);
    if (rate == basis_spb_.end()) continue;  // replica host not in the scoring basis
    const double finish = sh.loads[loc] + rate->second * static_cast<double>(pm.size);
    if (!best.valid() || finish < best_finish) {
      best = loc;
      best_finish = finish;
    }
  }
  pm.target = best;
  if (best.valid()) {
    sh.loads[best] = best_finish;
    ++sh.n_assigned;
  } else {
    ++sh.n_untargetable;
  }
  sh.pos[pm.block] = sh.order.size();
  sh.order.push_back({pm.block, best, best_finish, true});
  ++sh.pass_rescored;
  if (trace_ && best.valid() && best != before) {
    emits.push_back({pm.block, best, basis_spb_.find(best)->second});
  }
}

void RetargetIndex::full_rescore(PendingQueue& queue, Ordering ordering,
                                 const std::vector<SlaveSnapshot>& snapshots,
                                 std::vector<std::vector<Emission>>& emits) {
  refresh_basis(snapshots);
  const std::size_t n_shards = shards_.size();
  std::vector<std::vector<PendingMigration*>> buckets(n_shards);
  for (auto& b : buckets) b.reserve(queue.size() / n_shards + 1);
  queue.visit(ordering, [&](PendingQueue::iterator it) {
    buckets[shard_of(it->block)].push_back(&*it);
    return true;
  });
  auto run = [&](std::size_t si) {
    Shard& sh = shards_[si];
    sh.order.clear();
    sh.pos.clear();
    sh.appended.clear();
    sh.appended_set.clear();
    sh.first_dirty = kClean;
    sh.rebuild = false;
    sh.n_assigned = 0;
    sh.n_untargetable = 0;
    sh.order.reserve(buckets[si].size());
    sh.pos.reserve(buckets[si].size());
    sh.loads = basis_load_;
    for (PendingMigration* pm : buckets[si]) score_into(*pm, sh, emits[si]);
    sh.heap.rebuild(sh.loads);
  };
  if (n_shards == 1) {
    run(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_shards);
    for (std::size_t si = 0; si < n_shards; ++si) threads.emplace_back(run, si);
    for (auto& t : threads) t.join();
  }
  ++stats_.full_rescores;
}

void RetargetIndex::incremental_shard(PendingQueue& queue, std::size_t si,
                                      std::vector<Emission>& emits) {
  Shard& sh = shards_[si];
  if (sh.rebuild) {
    sh.order.clear();
    sh.pos.clear();
    sh.appended.clear();
    sh.appended_set.clear();
    sh.first_dirty = kClean;
    sh.rebuild = false;
    sh.n_assigned = 0;
    sh.n_untargetable = 0;
    sh.loads = basis_load_;
    for (PendingMigration& pm : queue) {
      if (shard_of(pm.block) != si) continue;
      score_into(pm, sh, emits);
    }
    sh.heap.rebuild(sh.loads);
    return;
  }
  const bool dirty = sh.first_dirty != kClean;
  if (dirty) {
    // Replay the clean prefix from the cache (finish times are stored
    // absolute, so the replay is bit-exact), then re-score from the dirty
    // frontier in the original pass order — tombstones drop out exactly
    // as a reference sweep over the current queue would see them.
    const std::size_t k = std::min(sh.first_dirty, sh.order.size());
    std::vector<Scored> suffix(sh.order.begin() + static_cast<std::ptrdiff_t>(k),
                               sh.order.end());
    sh.order.resize(k);
    sh.loads = basis_load_;
    for (const Scored& sc : sh.order) {
      if (sc.target.valid()) sh.loads[sc.target] = sc.finish;
    }
    for (const Scored& sc : suffix) {
      if (!sc.live) continue;
      if (sc.target.valid()) {
        --sh.n_assigned;
      } else {
        --sh.n_untargetable;
      }
      sh.pos.erase(sc.block);
    }
    for (const Scored& sc : suffix) {
      if (!sc.live) continue;
      PendingMigration* pm = queue.lookup(sc.block);
      DYRS_CHECK_MSG(pm != nullptr, "cached entry " << sc.block << " vanished untracked");
      score_into(*pm, sh, emits);
    }
    sh.first_dirty = kClean;
  }
  const std::vector<BlockId> appended = std::move(sh.appended);
  sh.appended.clear();
  sh.appended_set.clear();
  for (BlockId block : appended) {
    if (sh.pos.count(block) != 0) continue;       // already scored this pass
    PendingMigration* pm = queue.lookup(block);
    if (pm == nullptr) continue;                  // erased again before this pass
    score_into(*pm, sh, emits);
    if (!dirty && pm->target.valid()) sh.heap.update(pm->target, sh.loads[pm->target]);
  }
  if (dirty || sh.heap.size() > 2 * sh.loads.size() + 64) sh.heap.rebuild(sh.loads);
}

TargetingStats RetargetIndex::pass(PendingQueue& queue, Ordering ordering,
                                   const RetargetConfig& config,
                                   const std::vector<SlaveSnapshot>& snapshots, SimTime now,
                                   LifecycleEmitter* emitter) {
  ++stats_.passes;
  ensure_shards(config.shards);
  trace_ = emitter != nullptr;
  for (Shard& sh : shards_) sh.pass_rescored = 0;
  const bool structural_ok = valid_ && queue.mutation_count() == synced_mutations_;
  // SJF priorities are global (a job's outstanding bytes shift with every
  // queue change), so prefix caching is unsound — non-FIFO always sweeps.
  const bool full = !structural_ok || ordering != Ordering::Fifo ||
                    !basis_compatible(snapshots, config);
  std::vector<std::vector<Emission>> emits(shards_.size());
  if (full) {
    full_rescore(queue, ordering, snapshots, emits);
  } else {
    bool any_dirty = false;
    bool any_append = false;
    std::vector<std::size_t> work;
    for (std::size_t si = 0; si < shards_.size(); ++si) {
      const Shard& sh = shards_[si];
      any_dirty |= sh.rebuild || sh.first_dirty != kClean;
      any_append |= !sh.appended.empty();
      if (sh.rebuild || sh.first_dirty != kClean || !sh.appended.empty()) work.push_back(si);
    }
    if (work.size() <= 1) {
      for (std::size_t si : work) incremental_shard(queue, si, emits[si]);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(work.size());
      for (std::size_t si : work) {
        threads.emplace_back([this, &queue, si, &emits]() {
          incremental_shard(queue, si, emits[si]);
        });
      }
      for (auto& t : threads) t.join();
    }
    if (any_dirty) {
      ++stats_.suffix_rescores;
    } else if (any_append) {
      ++stats_.tail_extensions;
    } else {
      ++stats_.noop_passes;
    }
  }
  TargetingStats out;
  for (const Shard& sh : shards_) {
    out.assigned += sh.n_assigned;
    out.untargetable += sh.n_untargetable;
    stats_.entries_rescored += sh.pass_rescored;
    stats_.entries_reused += (sh.n_assigned + sh.n_untargetable) - sh.pass_rescored;
  }
  if (emitter != nullptr) {
    // Deterministic emission order: shard-ascending, scoring order within.
    for (const auto& shard_emits : emits) {
      for (const Emission& em : shard_emits) {
        emitter->target(now, em.block, em.node, em.sec_per_byte);
      }
    }
  }
  valid_ = true;
  synced_mutations_ = queue.mutation_count();
  return out;
}

bool RetargetIndex::self_check(const PendingQueue& queue) const {
  if (!valid_ || queue.mutation_count() != synced_mutations_) return true;
  for (const Shard& sh : shards_) {
    if (sh.rebuild) continue;
    const std::size_t limit = std::min(sh.first_dirty, sh.order.size());
    for (std::size_t i = 0; i < limit; ++i) {
      if (!sh.order[i].live) return false;  // tombstone escaped the dirty frontier
    }
    for (const auto& [block, idx] : sh.pos) {
      if (idx >= sh.order.size()) return false;
      if (sh.order[idx].block != block || !sh.order[idx].live) return false;
      if (!queue.contains(block)) return false;  // dangling cached reference
    }
    if (sh.n_assigned + sh.n_untargetable != sh.pos.size()) return false;
  }
  for (const PendingMigration& pm : queue) {
    const Shard& sh = shards_[shard_of(pm.block)];
    if (sh.rebuild) continue;
    if (sh.pos.count(pm.block) == 0 && sh.appended_set.count(pm.block) == 0) return false;
  }
  return true;
}

std::pair<NodeId, double> RetargetIndex::least_loaded(std::size_t shard) {
  Shard& sh = shards_.at(shard);
  return sh.heap.min(sh.loads);
}

}  // namespace dyrs::core
