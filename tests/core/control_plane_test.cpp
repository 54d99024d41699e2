// ControlPlane policy-engine tests: merged-enqueue tracing, avoid-list
// binding eligibility, the incremental RetargetIndex (pass classification,
// reference equivalence, untracked-churn fallback, stale estimate
// emission) and the bind walk's scan counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/control_plane.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"

namespace dyrs::core {
namespace {

SlaveSnapshot snap(int node, double sec_per_byte, Bytes queued = 0) {
  return {NodeId(node), sec_per_byte, queued};
}

std::vector<NodeId> nodes(std::initializer_list<int> ids) {
  std::vector<NodeId> out;
  for (int id : ids) out.emplace_back(id);
  return out;
}

/// A ControlPlane wired to an in-memory trace sink.
struct TracedPlane {
  explicit TracedPlane(ControlPlaneConfig config = {}) : plane(config) {
    tracer.set_sink(&sink);
    plane.set_observability(obs::ObsContext(&registry, &tracer));
  }

  ControlPlane::Enqueued add(int job, int block, Bytes size, std::initializer_list<int> replicas,
                             SimTime now, std::initializer_list<int> avoid = {}) {
    return plane.enqueue(JobId(job), EvictionMode::Explicit, BlockId(block), size, nodes(replicas),
                         nodes(avoid), now);
  }

  std::vector<obs::TraceEvent> of_type(const std::string& type) const {
    std::vector<obs::TraceEvent> out;
    for (const auto& e : sink.events()) {
      if (e.type == type) out.push_back(e);
    }
    return out;
  }

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::MemorySink sink;
  ControlPlane plane;
};

std::map<BlockId, NodeId> targets_of(const ControlPlane& plane) {
  std::map<BlockId, NodeId> out;
  for (const PendingMigration& pm : plane.queue()) out[pm.block] = pm.target;
  return out;
}

// ---------------------------------------------------------------------------
// Satellite: the enqueue merge path must emit a marked mig_enqueue so trace
// consumers see multi-job demand, and the oracle must accept it mid-lifecycle.

TEST(ControlPlaneTrace, MergedEnqueueEmitsMarkedEvent) {
  TracedPlane t;
  ASSERT_TRUE(t.add(1, 7, mib(2), {0, 1}, 10).created);
  ASSERT_FALSE(t.add(2, 7, mib(2), {0, 1}, 20).created);  // merges into the open entry

  const auto enqueues = t.of_type("mig_enqueue");
  ASSERT_EQ(enqueues.size(), 2u);
  EXPECT_EQ(enqueues[0].i64("merged", 0), 0);
  EXPECT_EQ(enqueues[0].i64("size"), static_cast<std::int64_t>(mib(2)));
  EXPECT_EQ(enqueues[1].i64("merged", 0), 1);
  EXPECT_EQ(enqueues[1].i64("block"), 7);
  EXPECT_EQ(enqueues[1].i64("job"), 2);
  // Size and replicas ride on the original enqueue only.
  EXPECT_EQ(enqueues[1].find("size"), nullptr);
  EXPECT_EQ(enqueues[1].find("replicas"), nullptr);

  // Drive the lifecycle to a terminal; the oracle must count the merge, not
  // flag it, and measure the bind wait from the *original* enqueue.
  t.plane.retarget({snap(0, 1e-6), snap(1, 2e-6)}, 30);
  auto bound = t.plane.bind_for(NodeId(0), 1, 1e-6, 40);
  ASSERT_EQ(bound.size(), 1u);
  t.plane.emitter().transfer_start(45, BlockId(7), NodeId(0), mib(2), 1);
  t.plane.emitter().complete(50, BlockId(7), NodeId(0), mib(2), 0.5);

  obs::TraceInvariants oracle;
  oracle.flag_open_lifecycles = true;
  const auto report = oracle.check(obs::TraceReader(t.sink.events()));
  EXPECT_TRUE(report.ok()) << report.summary()
                           << (report.violations.empty() ? "" : ": " + report.violations[0].detail);
  EXPECT_EQ(report.merged_enqueues, 1u);
  EXPECT_EQ(report.lifecycles_closed, 1u);
  const auto binds = t.of_type("mig_bind");
  ASSERT_EQ(binds.size(), 1u);
  EXPECT_EQ(binds[0].i64("wait_us"), 30);  // 40 - 10, not 40 - 20
}

TEST(ControlPlaneTrace, MergedEnqueueWithoutOpenLifecycleIsViolation) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent e(5, "mig_enqueue");
  e.with("block", 3).with("job", 1).with("merged", std::int64_t{1});
  events.push_back(e);

  obs::TraceInvariants oracle;
  const auto report = oracle.check(obs::TraceReader(events));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "order");
  EXPECT_EQ(report.merged_enqueues, 1u);
}

// ---------------------------------------------------------------------------
// Satellite: bind_for must honour the avoid list in LateTargeted mode — a
// stale target (assigned before a failure joined the avoid list) must not
// bind the block back to the node that failed it.

TEST(ControlPlaneBind, AvoidGatesStaleLateTargetedBinding) {
  TracedPlane t;
  t.add(1, 0, mib(1), {0, 1}, 0);
  // Node 0 is faster: Algorithm 1 targets the block there.
  t.plane.retarget({snap(0, 1e-6), snap(1, 2e-6)}, 1);
  ASSERT_EQ(t.plane.queue().lookup(BlockId(0))->target, NodeId(0));

  // A second job joins and carries node 0 in its avoid history (the replica
  // failed it elsewhere). The merge grows the avoid list but the stale
  // target still points at node 0.
  t.add(2, 0, mib(1), {0, 1}, 2, /*avoid=*/{0});
  ASSERT_EQ(t.plane.queue().lookup(BlockId(0))->target, NodeId(0));

  // Pre-fix this bound the block straight back to node 0.
  EXPECT_TRUE(t.plane.bind_for(NodeId(0), 1, 1e-6, 3).empty());
  EXPECT_EQ(t.plane.queue().size(), 1u);

  // The next pass re-targets away from the avoided node and node 1 binds.
  t.plane.retarget({snap(0, 1e-6), snap(1, 2e-6)}, 4);
  EXPECT_EQ(t.plane.queue().lookup(BlockId(0))->target, NodeId(1));
  const auto bound = t.plane.bind_for(NodeId(1), 1, 2e-6, 5);
  ASSERT_EQ(bound.size(), 1u);
  EXPECT_EQ(bound[0].block, BlockId(0));
}

TEST(ControlPlaneBind, AvoidStillGatesAnyReplicaBinding) {
  ControlPlaneConfig cfg;
  cfg.binding = Binding::LateAnyReplica;
  TracedPlane t(cfg);
  t.add(1, 0, mib(1), {0, 1}, 0, /*avoid=*/{0});
  EXPECT_TRUE(t.plane.bind_for(NodeId(0), 1, 1e-6, 1).empty());
  EXPECT_EQ(t.plane.bind_for(NodeId(1), 1, 1e-6, 2).size(), 1u);
}

// ---------------------------------------------------------------------------
// Satellite: mig_target must never carry a default-inserted 0.0 estimate
// for a target absent from the current snapshot set. The reachable case is
// an incremental pass scoring against a held basis after the node dropped
// out of the snapshots (declared dead): the emission carries the basis'
// last-known estimate.

TEST(ControlPlaneTrace, StaleTargetEmitsLastKnownEstimate) {
  ControlPlaneConfig cfg;
  cfg.retarget.mode = RetargetConfig::Mode::Incremental;
  cfg.retarget.estimate_threshold = 0.5;
  cfg.retarget.queued_threshold = 0.5;
  TracedPlane t(cfg);

  t.add(1, 0, mib(1), {0}, 0);
  t.plane.retarget({snap(0, 2e-6), snap(1, 1e-6)}, 1);  // basis: node 0 at 2e-6

  // Node 0 drops out of the snapshot set (declared dead); the held basis
  // keeps its last-known estimate. A new block replicated only there is
  // scored as a tail extension against that basis.
  t.add(1, 1, mib(1), {0}, 2);
  t.plane.retarget({snap(1, 1e-6)}, 3);
  ASSERT_EQ(t.plane.queue().lookup(BlockId(1))->target, NodeId(0));

  const auto targets = t.of_type("mig_target");
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[1].i64("block"), 1);
  EXPECT_EQ(targets[1].i64("node"), 0);
  EXPECT_DOUBLE_EQ(targets[1].f64("sec_per_byte"), 2e-6);  // never 0.0
}

// ---------------------------------------------------------------------------
// Incremental RetargetIndex behaviour.

TEST(RetargetIncremental, StatsClassifyPasses) {
  ControlPlaneConfig cfg;
  cfg.retarget.mode = RetargetConfig::Mode::Incremental;
  TracedPlane t(cfg);
  const std::vector<SlaveSnapshot> snaps = {snap(0, 1e-6), snap(1, 2e-6)};
  const RetargetIndex& index = t.plane.retarget_index();

  for (int b = 0; b < 3; ++b) t.add(1, b, mib(1), {0, 1}, b);
  auto stats = t.plane.retarget(snaps, 10);
  EXPECT_EQ(stats.assigned, 3u);
  EXPECT_EQ(index.stats().full_rescores, 1u);  // cold cache
  EXPECT_TRUE(index.self_check(t.plane.queue()));

  t.plane.retarget(snaps, 11);
  EXPECT_EQ(index.stats().noop_passes, 1u);  // nothing changed

  t.add(1, 3, mib(1), {0, 1}, 12);
  stats = t.plane.retarget(snaps, 13);
  EXPECT_EQ(stats.assigned, 4u);
  EXPECT_EQ(index.stats().tail_extensions, 1u);  // append-only
  EXPECT_TRUE(index.self_check(t.plane.queue()));

  ASSERT_EQ(t.plane.bind_for(NodeId(0), 1, 1e-6, 14).size(), 1u);
  stats = t.plane.retarget(snaps, 15);
  EXPECT_EQ(stats.assigned, 3u);
  EXPECT_EQ(index.stats().suffix_rescores, 1u);  // erase dirtied the prefix
  EXPECT_EQ(index.stats().full_rescores, 1u);    // still only the cold pass
  EXPECT_TRUE(index.self_check(t.plane.queue()));
  EXPECT_GT(index.stats().entries_reused, 0u);

  // The finish-time heap agrees with the load tables: the least-loaded
  // node is one of the reporting slaves.
  auto [least, finish] = t.plane.retarget_index().least_loaded();
  EXPECT_TRUE(least == NodeId(0) || least == NodeId(1));
  EXPECT_GE(finish, 0.0);
}

TEST(RetargetIncremental, MatchesReferenceAfterBindAndRequeue) {
  ControlPlaneConfig inc_cfg;
  inc_cfg.retarget.mode = RetargetConfig::Mode::Incremental;
  TracedPlane ref;  // reference mode
  TracedPlane inc(inc_cfg);
  const std::vector<SlaveSnapshot> snaps = {snap(0, 1e-6), snap(1, 2e-6), snap(2, 3e-6)};

  auto both = [&](auto&& fn) {
    fn(ref.plane);
    fn(inc.plane);
    EXPECT_TRUE(inc.plane.retarget_index().self_check(inc.plane.queue()));
  };

  for (int b = 0; b < 8; ++b) {
    both([&](ControlPlane& p) {
      p.enqueue(JobId(1), EvictionMode::Explicit, BlockId(b), mib(1 + b % 3),
                nodes({b % 3, (b + 1) % 3}), {}, b);
    });
  }
  both([&](ControlPlane& p) { p.retarget(snaps, 20); });
  EXPECT_EQ(targets_of(ref.plane), targets_of(inc.plane));

  // Bind two entries at node 0, requeue them with node 0 on the avoid list
  // (the failover path), and re-run the pass: the incremental engine's
  // suffix re-score must land exactly where the reference sweep does.
  std::vector<BoundMigration> ref_bound, inc_bound;
  ref_bound = ref.plane.bind_for(NodeId(0), 2, 1e-6, 21);
  inc_bound = inc.plane.bind_for(NodeId(0), 2, 1e-6, 21);
  ASSERT_EQ(ref_bound.size(), 2u);
  ASSERT_EQ(inc_bound.size(), 2u);
  EXPECT_EQ(ref.plane.binding_log(), inc.plane.binding_log());
  EXPECT_TRUE(inc.plane.retarget_index().self_check(inc.plane.queue()));

  for (const BoundMigration& m : ref_bound) {
    std::vector<NodeId> avoid = m.avoid;
    merge_avoid(avoid, NodeId(0));
    both([&](ControlPlane& p) {
      p.enqueue(JobId(1), EvictionMode::Explicit, m.block, m.size, m.replicas, avoid, 22);
    });
  }
  both([&](ControlPlane& p) { p.retarget(snaps, 23); });
  EXPECT_EQ(targets_of(ref.plane), targets_of(inc.plane));
  for (const BoundMigration& m : ref_bound) {
    EXPECT_NE(targets_of(inc.plane).at(m.block), NodeId(0));  // avoid honoured
  }

  // A drifted snapshot set (basis refresh) must also match.
  const std::vector<SlaveSnapshot> drifted = {snap(0, 4e-6, mib(3)), snap(1, 2e-6, mib(1)),
                                              snap(2, 1e-6)};
  both([&](ControlPlane& p) { p.retarget(drifted, 24); });
  EXPECT_EQ(targets_of(ref.plane), targets_of(inc.plane));
}

TEST(RetargetIncremental, MutationCountDetectsUntrackedErase) {
  ControlPlaneConfig cfg;
  cfg.retarget.mode = RetargetConfig::Mode::Incremental;
  TracedPlane t(cfg);
  const std::vector<SlaveSnapshot> snaps = {snap(0, 1e-6), snap(1, 2e-6)};

  for (int b = 0; b < 4; ++b) t.add(1, b, mib(1), {0, 1}, b);
  t.plane.retarget(snaps, 10);
  EXPECT_EQ(t.plane.retarget_index().stats().full_rescores, 1u);

  // Drivers erase queue entries directly on cancellation paths; the index
  // never hears about it. The next pass must detect the churn and fall
  // back to a full re-score instead of replaying a stale prefix.
  ASSERT_TRUE(t.plane.queue().erase(BlockId(1)));
  t.plane.retarget(snaps, 11);
  EXPECT_EQ(t.plane.retarget_index().stats().full_rescores, 2u);
  EXPECT_TRUE(t.plane.retarget_index().self_check(t.plane.queue()));

  // And the recovered targets match a reference plane over the same queue.
  TracedPlane ref;
  for (int b : {0, 2, 3}) ref.add(1, b, mib(1), {0, 1}, b);
  ref.plane.retarget(snaps, 11);
  EXPECT_EQ(targets_of(t.plane), targets_of(ref.plane));
}

TEST(RetargetIncremental, RequeueWithinOnePassWindowRebuildsShard) {
  ControlPlaneConfig cfg;
  cfg.retarget.mode = RetargetConfig::Mode::Incremental;
  TracedPlane t(cfg);
  const std::vector<SlaveSnapshot> snaps = {snap(0, 1e-6), snap(1, 2e-6)};

  t.add(1, 0, mib(1), {0, 1}, 1);
  t.add(1, 1, mib(1), {0, 1}, 2);
  t.plane.retarget(snaps, 3);  // cold full pass

  // enqueue -> bind -> requeue of one block inside a single inter-pass
  // window: the recorded append order no longer matches the live queue, so
  // the shard must rebuild instead of replaying the stale tail.
  t.add(1, 2, mib(1), {0, 1}, 4);
  const auto it = t.plane.queue().find(BlockId(2));
  ASSERT_NE(it, t.plane.queue().end());
  t.plane.bind_entry(it, NodeId(0), 1e-6, 5);
  t.add(1, 2, mib(1), {0, 1}, 6);  // requeued: second append of the same block
  t.plane.retarget(snaps, 7);
  EXPECT_TRUE(t.plane.retarget_index().self_check(t.plane.queue()));
  EXPECT_EQ(t.plane.retarget_index().stats().full_rescores, 1u);  // no fallback

  TracedPlane ref;
  ref.add(1, 0, mib(1), {0, 1}, 1);
  ref.add(1, 1, mib(1), {0, 1}, 2);
  ref.add(1, 2, mib(1), {0, 1}, 6);
  ref.plane.retarget(snaps, 7);
  EXPECT_EQ(targets_of(t.plane), targets_of(ref.plane));
}

// ---------------------------------------------------------------------------
// ctrl.bind.entries_scanned: the bind walk visits entries in consideration
// order and stops once the free slots are filled, so a pull costs what it
// hands out, not the length of the queue.

std::int64_t bind_scanned(const obs::MetricsRegistry& registry) {
  const obs::Counter* c = registry.find_counter("ctrl.bind.entries_scanned");
  return c == nullptr ? -1 : c->value();
}

TEST(ControlPlaneBindScan, FilledSlotsStopTheWalkAtAnyQueueLength) {
  constexpr int kFirst = 4;  // entries at the head targeted at node 0
  for (const int queued : {16, 100'000}) {
    SCOPED_TRACE(queued);
    obs::MetricsRegistry registry;
    ControlPlane plane;
    plane.set_observability(obs::ObsContext(&registry, nullptr));
    for (int b = 0; b < queued; ++b) {
      plane.enqueue(JobId(1), EvictionMode::Explicit, BlockId(b), mib(1),
                    nodes({b < kFirst ? 0 : 1}), {}, b);
    }
    plane.retarget({snap(0, 1e-6), snap(1, 1e-6)}, queued);
    ASSERT_EQ(plane.bind_for(NodeId(0), kFirst, 1e-6, queued + 1).size(),
              static_cast<std::size_t>(kFirst));
    EXPECT_EQ(bind_scanned(registry), kFirst);
    // Slots the queue cannot fill send the walk to the end of the list.
    EXPECT_TRUE(plane.bind_for(NodeId(0), 1, 1e-6, queued + 2).empty());
    EXPECT_EQ(bind_scanned(registry), kFirst + (queued - kFirst));
  }
}

TEST(ControlPlaneBindScan, CallsThatCannotBindScanNothing) {
  obs::MetricsRegistry registry;
  ControlPlane plane;
  plane.set_observability(obs::ObsContext(&registry, nullptr));
  EXPECT_TRUE(plane.bind_for(NodeId(0), 2, 1e-6, 1).empty());  // empty queue
  EXPECT_EQ(bind_scanned(registry), 0);
  plane.enqueue(JobId(1), EvictionMode::Explicit, BlockId(0), mib(1), nodes({0}), {}, 2);
  plane.retarget({snap(0, 1e-6)}, 3);
  EXPECT_TRUE(plane.bind_for(NodeId(0), 0, 1e-6, 4).empty());  // no free slot
  EXPECT_EQ(bind_scanned(registry), 0);

  ControlPlaneConfig eager;
  eager.binding = Binding::EagerRandom;
  ControlPlane eager_plane(eager);
  eager_plane.set_observability(obs::ObsContext(&registry, nullptr));
  eager_plane.enqueue(JobId(1), EvictionMode::Explicit, BlockId(0), mib(1), nodes({0}), {}, 5);
  EXPECT_TRUE(eager_plane.bind_for(NodeId(0), 2, 1e-6, 6).empty());
  EXPECT_EQ(bind_scanned(registry), 0);

  ASSERT_EQ(plane.bind_for(NodeId(0), 2, 1e-6, 7).size(), 1u);
  EXPECT_EQ(bind_scanned(registry), 1);
}

TEST(ControlPlaneBindScan, CounterAbsentWithoutRegistry) {
  obs::MetricsRegistry registry;  // live, but never handed to the plane
  obs::Tracer tracer;
  obs::MemorySink sink;
  tracer.set_sink(&sink);
  ControlPlane plane;
  plane.set_observability(obs::ObsContext(nullptr, &tracer));
  plane.enqueue(JobId(1), EvictionMode::Explicit, BlockId(0), mib(1), nodes({0}), {}, 1);
  plane.retarget({snap(0, 1e-6)}, 2);
  EXPECT_EQ(plane.bind_for(NodeId(0), 1, 1e-6, 3).size(), 1u);
  EXPECT_FALSE(sink.events().empty());
  EXPECT_EQ(registry.find_counter("ctrl.bind.entries_scanned"), nullptr);
}

}  // namespace
}  // namespace dyrs::core
