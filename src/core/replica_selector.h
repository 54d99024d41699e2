// Algorithm 1 — greedy earliest-finish replica targeting (paper §III-A2).
//
// For each pending block, choose as its migration target the replica node
// on which it is expected to *finish* soonest given everything already
// queued or previously targeted there. This both balances load by residual
// bandwidth and avoids handing the last migrations of a job to a slow node
// (the straggler pathology of naive balancing, Fig 10).
//
// This implementation is byte-exact: loads are tracked in bytes and each
// block contributes its own size, which reduces to the paper's per-block
// formulation (finishTime[n] = migTime[n] * (numQueued[n]+1)) when all
// blocks have equal size.
#pragma once

#include <functional>
#include <vector>

#include "common/ids.h"
#include "core/types.h"

namespace dyrs::core {

/// One slave's state as reported on its last heartbeat.
struct SlaveSnapshot {
  NodeId node;
  double sec_per_byte = 0.0;  // current migration-time estimate
  Bytes queued_bytes = 0;     // bytes bound locally (queued + in flight)
};

struct TargetingStats {
  std::size_t assigned = 0;    // blocks that received a target
  std::size_t untargetable = 0;  // no replica on any reporting slave
  std::size_t snapshot_nodes = 0;  // nodes whose snapshot the pass read
};

/// One Algorithm 1 pass, scoring entries one at a time in the caller's
/// order. Each snapshot's sec/byte and running load (queued plus targeted
/// work) sit in arrays indexed by snapshot position, reached through a
/// node -> slot table. Snapshots come either all up front (a node listed
/// twice counts with its last values) or one node at a time from a fetch
/// callback, called the first time an entry names the node as a candidate
/// replica and memoized for the rest of the pass.
class TargetScorer {
 public:
  /// Fills the node's snapshot and returns true, or returns false when the
  /// node is not reporting.
  using Fetch = std::function<bool(NodeId, SlaveSnapshot&)>;

  TargetScorer() = default;
  explicit TargetScorer(const std::vector<SlaveSnapshot>& slaves) { start(slaves); }
  /// Starts a pass over `slaves`. A scorer can run pass after pass; each
  /// start keeps the previous pass's buffers.
  void start(const std::vector<SlaveSnapshot>& slaves);
  /// Starts a pass that reads snapshots through `fetch`, which must
  /// outlive the pass.
  void start(const Fetch& fetch);
  /// Targets `block` at its earliest-finish replica that is neither
  /// avoided nor silent (ties go to the first listed), or invalid, and
  /// charges the block to that node. Returns its sec_per_byte (0 if none).
  double assign(PendingMigration& block);
  const TargetingStats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kSilent = static_cast<std::size_t>(-1);
  void clear();
  /// The node's slot + 1, kSilent when it is not reporting; fetches the
  /// node's snapshot on first use.
  std::size_t slot_of(NodeId node);
  void set_slot(std::size_t id, std::size_t slot);
  std::size_t add(const SlaveSnapshot& s);

  const Fetch* fetch_ = nullptr;
  std::vector<std::size_t> slot_of_;  // node id -> slot + 1; 0 = not read yet
  std::vector<std::size_t> touched_;  // node ids whose slot_of_ entry is set
  std::vector<double> sec_per_byte_;
  std::vector<double> load_seconds_;
  TargetingStats stats_;
};

/// Runs Algorithm 1 over `pending` in the given order, setting each
/// entry's `target`. Entries whose replicas include no node in `slaves`
/// get an invalid target and are skipped at assignment time.
TargetingStats assign_targets(std::vector<PendingMigration*>& pending,
                              const std::vector<SlaveSnapshot>& slaves);

}  // namespace dyrs::core
