#include "core/control_plane.h"

#include <algorithm>

namespace dyrs::core {

ControlPlane::Enqueued ControlPlane::enqueue(JobId job, EvictionMode mode, BlockId block,
                                             Bytes size, std::vector<NodeId> replicas,
                                             const std::vector<NodeId>& avoid, SimTime now) {
  if (PendingMigration* pm = queue_.lookup(block)) {
    queue_.merge(*pm, job, mode, avoid);
    emitter_.enqueue_merged(now, block, job);
    return {pm, false};
  }
  PendingMigration pm;
  pm.block = block;
  pm.size = size;
  pm.jobs[job] = mode;
  pm.replicas = std::move(replicas);
  pm.avoid = avoid;
  pm.requested_at = now;
  PendingMigration& entry = queue_.push(std::move(pm));
  emitter_.enqueue(now, block, job, entry.size, entry.replicas);
  return {&entry, true};
}

TargetingStats ControlPlane::retarget(const std::vector<SlaveSnapshot>& snapshots, SimTime now) {
  if (queue_.empty() || snapshots.empty()) return {};
  scored_version_.reset();
  scorer_.start(snapshots);
  return run_pass(now);
}

TargetingStats ControlPlane::retarget(const TargetScorer::Fetch& fetch, SimTime now) {
  if (queue_.empty()) return {};
  if (scored_version_ != queue_.version()) {
    scorer_.start(fetch);
  } else if (scorer_.restart(fetch)) {
    if (ctr_skipped_ != nullptr) {
      ctr_skipped_->inc();
      ctr_snapshot_nodes_->add(static_cast<std::int64_t>(scorer_.stats().snapshot_nodes));
    }
    return scored_stats_;
  }
  scored_stats_ = run_pass(now);
  scored_version_ = queue_.version();
  return scored_stats_;
}

TargetingStats ControlPlane::run_pass(SimTime now) {
  const bool trace = emitter_.tracing() &&
                     config_.target_trace == ControlPlaneConfig::TargetTrace::AtRetarget;
  // Target in the same order binding will consider entries, so the greedy
  // finish-time accounting matches the eventual assignment order. A sweep
  // targets only reporting nodes, so each emission carries the estimate
  // that scored it.
  queue_.retarget(config_.ordering, [&](PendingMigration& pm) {
    const NodeId before = pm.target;
    const double sec_per_byte = scorer_.assign(pm);
    if (trace && pm.target.valid() && pm.target != before) {
      emitter_.target(now, pm.block, pm.target, sec_per_byte);
    }
  });
  const TargetingStats& stats = scorer_.stats();
  if (ctr_scored_ != nullptr) {
    ctr_passes_->inc();
    ctr_scored_->add(static_cast<std::int64_t>(stats.assigned + stats.untargetable));
    ctr_snapshot_nodes_->add(static_cast<std::int64_t>(stats.snapshot_nodes));
  }
  return stats;
}

BoundMigration ControlPlane::bind_entry(PendingQueue::iterator it, NodeId node,
                                        double sec_per_byte, SimTime now) {
  BoundMigration bm;
  bm.block = it->block;
  bm.size = it->size;
  bm.jobs = std::move(it->jobs);
  bm.replicas = std::move(it->replicas);
  bm.requested_at = it->requested_at;
  bm.bound_at = now;
  bm.avoid = std::move(it->avoid);
  if (config_.target_trace == ControlPlaneConfig::TargetTrace::AtBind) {
    emitter_.target(now, bm.block, node, sec_per_byte);
  }
  emitter_.bind(now, bm.block, node, now - bm.requested_at);
  queue_.erase(it);
  return bm;
}

std::vector<BoundMigration> ControlPlane::bind_for(NodeId node, int free_slots,
                                                   double sec_per_byte, SimTime now) {
  std::vector<BoundMigration> out;
  if (free_slots <= 0 || queue_.empty() || config_.binding == Binding::EagerRandom) return out;
  const bool targeted = config_.binding == Binding::LateTargeted;
  std::int64_t scanned = 0;
  auto consider = [&](PendingQueue::iterator it) {
    ++scanned;
    // The avoid list gates both modes: a LateTargeted entry can carry a
    // stale target pointing at a node that has since failed on it (a merge
    // grew the avoid list after the last pass assigned the target) —
    // binding there anyway would hand the block back to the replica that
    // just proved unable to serve it.
    if (std::find(it->avoid.begin(), it->avoid.end(), node) != it->avoid.end()) return true;
    const bool eligible =
        targeted ? it->target == node
                 : std::find(it->replicas.begin(), it->replicas.end(), node) !=
                       it->replicas.end();
    if (!eligible) return true;
    out.push_back(bind_entry(it, node, sec_per_byte, now));
    return --free_slots > 0;
  };
  // A Fifo pass leaves `node`'s list in FIFO order, so walking it binds the
  // same entries in the same order as walking the whole queue would.
  if (targeted && config_.ordering == Ordering::Fifo) {
    queue_.visit_targeted(node, consider);
  } else {
    queue_.visit(config_.ordering, consider);
  }
  if (ctr_bind_scanned_ != nullptr) ctr_bind_scanned_->add(scanned);
  return out;
}

int ControlPlane::requeue(std::vector<BoundMigration> lost, NodeId avoid,
                          const std::function<bool(JobId)>& job_active, const AddPending& add,
                          SimTime now) {
  int count = 0;
  for (BoundMigration& m : lost) {
    // The node that just failed joins the history carried through binding,
    // so repeated requeues steadily narrow the candidate set.
    if (avoid.valid()) merge_avoid(m.avoid, avoid);
    bool requeued = false;
    for (const auto& [job, mode] : m.jobs) {
      if (job_active && !job_active(job)) continue;  // job finished meanwhile
      add(job, mode, m);
      requeued = true;
    }
    if (!requeued) continue;
    ++count;
    emitter_.requeue(now, m.block, avoid);
  }
  return count;
}

}  // namespace dyrs::core
