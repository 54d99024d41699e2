// Property tests for the incremental RetargetIndex: over 150 seeded random
// operation schedules (enqueue, merge-with-avoid, bind, untracked erase,
// requeue, retarget passes against drifting and shrinking snapshot sets),
// the incremental engine at zero thresholds must choose exactly the
// targets the reference sweep chooses. The index's structural self-check
// must hold after every operation, also for an index that holds its basis
// across drift (thresholds above 0) — a requeue landing between passes
// must dirty the entry and never leave a dangling per-node heap or
// position reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "core/control_plane.h"

namespace dyrs::core {
namespace {

constexpr int kNodes = 5;

std::map<BlockId, NodeId> targets_of(const ControlPlane& plane) {
  std::map<BlockId, NodeId> out;
  for (const PendingMigration& pm : plane.queue()) out[pm.block] = pm.target;
  return out;
}

/// Drives N planes through one identical random schedule. Emission is
/// disabled (no emitter): this exercises pure policy state.
struct Schedule {
  explicit Schedule(std::uint64_t seed) : rng(seed) {}

  std::mt19937_64 rng;
  std::vector<ControlPlane*> planes;
  std::vector<BoundMigration> bound;  // requeue candidates, from planes[0]
  int next_block = 0;
  SimTime now = 0;
  std::vector<SlaveSnapshot> snaps;

  int pick(int bound_excl) { return static_cast<int>(rng() % static_cast<std::uint64_t>(bound_excl)); }

  void fresh_snapshots() {
    snaps.clear();
    // Occasionally shrink the reporting set (declared-dead nodes).
    const int reporting = 2 + pick(kNodes - 1);
    for (int n = 0; n < reporting; ++n) {
      SlaveSnapshot s;
      s.node = NodeId(n);
      s.sec_per_byte = (1 + pick(8)) * 1e-7;
      s.queued_bytes = static_cast<Bytes>(pick(4)) * mib(1);
      snaps.push_back(s);
    }
  }

  void enqueue_new() {
    const int b = next_block++;
    std::vector<NodeId> replicas;
    const int first = pick(kNodes);
    replicas.emplace_back(first);
    if (pick(2) == 0) replicas.emplace_back((first + 1 + pick(kNodes - 1)) % kNodes);
    const Bytes size = mib(1 + pick(3));
    const JobId job(1 + pick(3));
    for (ControlPlane* p : planes) {
      p->enqueue(job, EvictionMode::Explicit, BlockId(b), size, replicas, {}, now);
    }
  }

  void merge_existing() {
    const PendingQueue& q = planes[0]->queue();
    if (q.empty()) return;
    auto it = q.begin();
    std::advance(it, pick(static_cast<int>(q.size())));
    const BlockId block = it->block;
    std::vector<NodeId> avoid;
    if (pick(2) == 0 && !it->replicas.empty()) avoid.push_back(it->replicas.front());
    const JobId job(1 + pick(3));
    for (ControlPlane* p : planes) {
      p->enqueue(job, EvictionMode::Explicit, block, 0, {}, avoid, now);
    }
  }

  void retarget() {
    if (pick(3) != 0) fresh_snapshots();  // else: repeat snapshots (noop/tail path)
    if (snaps.empty()) fresh_snapshots();
    for (ControlPlane* p : planes) p->retarget(snaps, now);
  }

  void bind() {
    const NodeId node(pick(kNodes));
    const int slots = 1 + pick(2);
    bool first = true;
    for (ControlPlane* p : planes) {
      auto got = p->bind_for(node, slots, 1e-7, now);
      if (first) {
        for (auto& m : got) bound.push_back(std::move(m));
        first = false;
      }
    }
  }

  void untracked_erase() {
    const PendingQueue& q = planes[0]->queue();
    if (q.empty()) return;
    auto it = q.begin();
    std::advance(it, pick(static_cast<int>(q.size())));
    const BlockId block = it->block;
    for (ControlPlane* p : planes) p->queue().erase(block);
  }

  void requeue() {
    if (bound.empty()) return;
    const std::size_t i = static_cast<std::size_t>(pick(static_cast<int>(bound.size())));
    BoundMigration m = bound[i];
    bound.erase(bound.begin() + static_cast<std::ptrdiff_t>(i));
    std::vector<NodeId> avoid = m.avoid;
    if (!m.replicas.empty()) merge_avoid(avoid, m.replicas.front());
    for (ControlPlane* p : planes) {
      // Mirrors the failover path: re-add for one surviving job, with the
      // failed node joining the carried avoid history.
      p->enqueue(m.jobs.begin()->first, m.jobs.begin()->second, m.block, m.size, m.replicas,
                 avoid, now);
    }
  }

  /// One random operation; returns true if it was a retarget pass.
  bool step() {
    ++now;
    switch (pick(10)) {
      case 0:
      case 1:
      case 2: enqueue_new(); return false;
      case 3: merge_existing(); return false;
      case 4:
      case 5: retarget(); return true;
      case 6: bind(); return false;
      case 7: untracked_erase(); return false;
      default: requeue(); return false;
    }
  }
};

// Incremental (exact) == reference, operation by operation; a third plane
// holds its basis across drift and only has to stay structurally sound.
TEST(RetargetProperty, IncrementalMatchesReferenceOverRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    ControlPlaneConfig ref_cfg;
    // A sprinkle of SJF seeds exercises the full-sweep fallback.
    if (seed % 10 == 0) ref_cfg.ordering = Ordering::SmallestJobFirst;
    ControlPlaneConfig inc_cfg = ref_cfg;
    inc_cfg.retarget.mode = RetargetConfig::Mode::Incremental;
    ControlPlaneConfig held_cfg = inc_cfg;
    held_cfg.retarget.estimate_threshold = 0.25;
    held_cfg.retarget.queued_threshold = 0.5;
    ControlPlane ref(ref_cfg);
    ControlPlane inc(inc_cfg);
    ControlPlane held(held_cfg);

    Schedule sched(seed);
    sched.planes = {&ref, &inc, &held};
    for (int op = 0; op < 40; ++op) {
      const bool passed = sched.step();
      ASSERT_TRUE(inc.retarget_index().self_check(inc.queue()))
          << "seed " << seed << " op " << op;
      ASSERT_TRUE(held.retarget_index().self_check(held.queue()))
          << "seed " << seed << " op " << op;
      if (passed) {
        ASSERT_EQ(targets_of(ref), targets_of(inc)) << "seed " << seed << " op " << op;
      }
    }
    // Bindings depend only on targets and queue order, so the full logs
    // must agree too.
    EXPECT_EQ(ref.binding_log(), inc.binding_log()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dyrs::core
