// RetargetIndex — incremental Algorithm 1 retargeting.
//
// The reference retargeter (replica_selector.h) re-scores every pending
// entry against every snapshot on every pass: O(pending x replicas) work
// even when nothing moved. At cluster scale (10k nodes, millions of
// pending blocks) that sweep dominates the master's cycle. This index
// caches the last pass and re-scores only what changed:
//
//   * a *scoring basis* — the per-node sec_per_byte estimates and initial
//     load seconds derived from the snapshot set at the last full pass,
//     plus a per-node finish-time table and lazy min-heap maintained as
//     entries are assigned;
//   * the *pass order* with each entry's chosen target and the node finish
//     time it produced — because greedy earliest-finish is order-coupled
//     (entry i's assignment shifts loads seen by entry i+1), a cached
//     prefix replays exactly as long as nothing before it changed;
//   * a *dirty frontier*: the earliest pass position invalidated by a
//     merge (avoid-list growth), a bind, or an erase. A pass replays the
//     clean prefix from the cache and re-scores only the suffix; pure
//     appends extend the tail; an unchanged queue is a no-op pass.
//
// Exactness: with both drift thresholds at 0 the pass is bit-identical to
// the reference sweep — the basis is refreshed whenever any snapshot value
// moves, so cached results are only reused against the exact inputs that
// produced them, and the suffix re-score uses the same arithmetic (and the
// same fold order) as assign_targets. With thresholds > 0 the basis is
// *held* while estimates drift within tolerance (and while nodes drop out
// of the snapshot set — a dead node lingers at its last-known estimate
// until the basis refreshes), trading staleness for O(dirty) passes; the
// bind-time avoid check is the safety net for the stale-target window
// this opens.
//
// External mutations: drivers erase queue entries directly (cancellation,
// eviction, failover). The index detects untracked churn by comparing
// PendingQueue::mutation_count() against the count at its last sync and
// falls back to a full re-score, so it is correct-by-construction even
// for callers that never heard of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "core/binding.h"
#include "core/lifecycle.h"
#include "core/pending_queue.h"
#include "core/replica_selector.h"
#include "core/types.h"

namespace dyrs::core {

struct RetargetConfig {
  enum class Mode {
    Reference,    ///< full assign_targets sweep every pass (the seed behaviour)
    Incremental,  ///< cached-prefix replay + dirty-suffix re-score (RetargetIndex)
  };
  Mode mode = Mode::Reference;
  /// Relative sec_per_byte drift tolerated before the cached scoring basis
  /// is refreshed. 0 = exact: any estimate change forces a full re-score.
  double estimate_threshold = 0.0;
  /// Relative queued_bytes drift tolerated (floored at one byte so an idle
  /// node's first binding still registers). 0 = exact.
  double queued_threshold = 0.0;
};

/// Lazy min-heap over per-node finish times. `update` pushes without
/// deleting the node's previous entry; `min` skips entries that disagree
/// with the authoritative load table and compacts when stale entries
/// dominate. This keeps incremental maintenance O(log n) per assignment
/// while bulk passes rebuild in O(n).
class FinishTimeHeap {
 public:
  void rebuild(const std::unordered_map<NodeId, double>& loads);
  void update(NodeId node, double finish_s);
  /// (node, finish seconds) with the smallest current finish time per
  /// `loads`; ties break toward the smaller node id. Invalid node if
  /// `loads` is empty.
  std::pair<NodeId, double> min(const std::unordered_map<NodeId, double>& loads);
  std::size_t size() const { return heap_.size(); }

 private:
  struct Item {
    double finish;
    std::int64_t node;
    bool operator>(const Item& o) const {
      if (finish != o.finish) return finish > o.finish;
      return node > o.node;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap_;
};

class RetargetIndex {
 public:
  struct Stats {
    std::uint64_t passes = 0;
    std::uint64_t full_rescores = 0;    // basis refresh / untracked churn / SJF
    std::uint64_t suffix_rescores = 0;  // replayed prefix, re-scored from frontier
    std::uint64_t tail_extensions = 0;  // append-only: scored new entries only
    std::uint64_t noop_passes = 0;      // nothing changed, nothing scored
    std::uint64_t entries_rescored = 0;
    std::uint64_t entries_reused = 0;  // cache hits across suffix/tail/noop passes
  };

  /// `block` was pushed onto `queue` (call right after the push).
  void note_append(const PendingQueue& queue, BlockId block);
  /// `block`'s entry mutated in place (job merge grew the avoid list).
  void note_mutate(BlockId block);
  /// `block`'s entry was erased through the control plane (a bind); call
  /// right after the erase. Removes the entry from the cached order and
  /// dirties its position — the bound bytes reappear in the node's
  /// queued_bytes at the next snapshot, exactly like the reference sweep.
  void note_erase(const PendingQueue& queue, BlockId block);
  /// Drops every cached result; the next pass re-scores from scratch.
  void invalidate() { valid_ = false; }

  /// One retargeting pass. Mirrors assign_targets' contract (sets each
  /// entry's target; untargetable entries get an invalid target) and, when
  /// `emitter` is non-null, emits `mig_target` for entries whose target
  /// changed — with the scoring-basis estimate, which for a node absent
  /// from the current snapshot set is its last-known value, never a
  /// default-constructed 0.
  TargetingStats pass(PendingQueue& queue, Ordering ordering, const RetargetConfig& config,
                      const std::vector<SlaveSnapshot>& snapshots, SimTime now,
                      LifecycleEmitter* emitter);

  /// Structural audit for tests: every cached position maps to a live
  /// queue entry, the clean prefix holds no tombstones, and the finish
  /// heap agrees with the load tables. Trivially true while invalid.
  bool self_check(const PendingQueue& queue) const;

  const Stats& stats() const { return stats_; }
  bool cache_valid() const { return valid_; }
  /// Earliest-finishing node per the finish-time heap.
  std::pair<NodeId, double> least_loaded() { return heap_.min(loads_); }

 private:
  static constexpr std::size_t kClean = std::numeric_limits<std::size_t>::max();

  struct Scored {
    BlockId block;
    NodeId target = NodeId::invalid();
    double finish = 0.0;  // the chosen node's finish time after this entry
    bool live = true;     // false once erased (tombstone awaiting compaction)
  };
  bool basis_compatible(const std::vector<SlaveSnapshot>& snapshots,
                        const RetargetConfig& config) const;
  void refresh_basis(const std::vector<SlaveSnapshot>& snapshots);
  /// Drops the pass cache and restarts the load table from the basis.
  void reset_order();
  /// Scores `pm` against `loads_` with assign_targets' exact arithmetic,
  /// appends the result to the cache, and emits `mig_target` when the
  /// target changed. Does not touch the heap (callers batch-rebuild or
  /// incrementally update as fits their pass shape).
  void score_into(PendingMigration& pm);
  void full_rescore(PendingQueue& queue, Ordering ordering,
                    const std::vector<SlaveSnapshot>& snapshots);
  /// Re-scores from the dirty frontier (replaying the cached clean
  /// prefix), then drains the appended tail; a cache flagged for rebuild
  /// rescans the live queue instead.
  void incremental(PendingQueue& queue);

  std::vector<Scored> order_;  // cached pass order with results
  std::unordered_map<BlockId, std::size_t> pos_;
  std::vector<BlockId> appended_;  // pushed since the last pass, in order
  std::unordered_set<BlockId> appended_set_;
  std::size_t first_dirty_ = kClean;          // earliest invalidated pass position
  bool rebuild_ = false;                      // append order unusable: rescan the queue
  std::unordered_map<NodeId, double> loads_;  // per-node finish seconds
  FinishTimeHeap heap_;
  std::size_t n_assigned_ = 0;
  std::size_t n_untargetable_ = 0;
  std::size_t pass_rescored_ = 0;  // entries scored during the current pass
  std::unordered_map<NodeId, double> basis_spb_;
  std::unordered_map<NodeId, double> basis_load_;
  std::unordered_map<NodeId, Bytes> basis_queued_;
  bool valid_ = false;
  LifecycleEmitter* emitter_ = nullptr;  // the current pass's, if it traces
  SimTime now_ = 0;                      // the current pass's timestamp
  std::uint64_t synced_mutations_ = 0;
  Stats stats_;
};

}  // namespace dyrs::core
