// ControlPlane policy-engine tests: merged-enqueue tracing, avoid-list
// binding eligibility, targets that lapse with their node's snapshot and
// the bind walk's scan counter.
#include <gtest/gtest.h>

#include <cstdint>
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
// No target outlives its node's snapshot: a pass scores only the nodes that
// reported, so a block whose every replica is missing from the snapshot set
// loses its target, emits no mig_target for it, and cannot bind there.

TEST(ControlPlaneTrace, TargetClearedWhenItsNodeLeavesTheSnapshots) {
  TracedPlane t;
  t.add(1, 0, mib(1), {0}, 0);
  t.plane.retarget({snap(0, 2e-6), snap(1, 1e-6)}, 1);
  ASSERT_EQ(t.plane.queue().lookup(BlockId(0))->target, NodeId(0));
  ASSERT_EQ(t.of_type("mig_target").size(), 1u);

  // Node 0 drops out of the snapshot set (declared dead).
  const TargetingStats stats = t.plane.retarget({snap(1, 1e-6)}, 2);
  EXPECT_FALSE(t.plane.queue().lookup(BlockId(0))->target.valid());
  EXPECT_EQ(stats.assigned, 0u);
  EXPECT_EQ(stats.untargetable, 1u);
  EXPECT_EQ(t.of_type("mig_target").size(), 1u);

  EXPECT_TRUE(t.plane.bind_for(NodeId(0), 1, 2e-6, 3).empty());
  EXPECT_EQ(t.plane.queue().size(), 1u);
  EXPECT_TRUE(t.of_type("mig_bind").empty());
}

// ---------------------------------------------------------------------------
// A pass that fetches snapshots reads each candidate replica holder once,
// and no other node, and targets exactly as a pass over every snapshot.

TEST(ControlPlaneRetarget, FetchReadsEachNamedHolderOnceAndMatchesTheFullSweep) {
  TracedPlane lazy;
  TracedPlane full;
  for (TracedPlane* t : {&lazy, &full}) {
    t->add(1, 0, mib(2), {0, 1}, 0);
    t->add(1, 1, mib(1), {1, 2}, 1);
    t->add(2, 2, mib(4), {2, 3}, 2, /*avoid=*/{3});  // node 3 only via an avoided replica
    t->add(2, 3, mib(1), {0, 9}, 3);                 // node 9 is not reporting
  }
  const std::vector<SlaveSnapshot> snaps = {snap(0, 2e-6, mib(1)), snap(1, 1e-6),
                                            snap(2, 3e-6), snap(3, 1e-6), snap(4, 1e-6)};
  std::vector<NodeId> fetched;
  const TargetScorer::Fetch fetch = [&](NodeId node, SlaveSnapshot& out) {
    fetched.push_back(node);
    for (const SlaveSnapshot& s : snaps) {
      if (s.node == node) {
        out = s;
        return true;
      }
    }
    return false;
  };
  const TargetingStats a = lazy.plane.retarget(fetch, 4);
  const TargetingStats b = full.plane.retarget(snaps, 4);
  EXPECT_EQ(fetched, nodes({0, 1, 2, 9}));  // first-use order, each once
  EXPECT_EQ(a.assigned, b.assigned);
  EXPECT_EQ(a.untargetable, b.untargetable);
  EXPECT_EQ(a.snapshot_nodes, 4u);
  EXPECT_EQ(b.snapshot_nodes, snaps.size());
  for (int block = 0; block < 4; ++block) {
    EXPECT_EQ(lazy.plane.queue().lookup(BlockId(block))->target,
              full.plane.queue().lookup(BlockId(block))->target);
  }
  EXPECT_EQ(lazy.registry.find_counter("ctrl.retarget.snapshot_nodes")->value(), 4);
  EXPECT_EQ(lazy.registry.find_counter("ctrl.retarget.entries_scored")->value(), 4);

  // Memoized per pass, not across passes.
  fetched.clear();
  lazy.plane.retarget(fetch, 5);
  EXPECT_EQ(fetched, nodes({0, 1, 2, 9}));
  EXPECT_EQ(lazy.registry.find_counter("ctrl.retarget.snapshot_nodes")->value(), 8);
}

// ---------------------------------------------------------------------------
// ctrl.bind.entries_scanned: a LateTargeted Fifo pull walks only the
// pulling node's target list and stops once the free slots are filled, so
// a pull costs what it hands out, not the length of the queue.

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
    plane.retarget({snap(0, 1e-6), snap(1, 1e-6), snap(2, 1e-6)}, queued);
    ASSERT_EQ(plane.bind_for(NodeId(0), kFirst, 1e-6, queued + 1).size(),
              static_cast<std::size_t>(kFirst));
    EXPECT_EQ(bind_scanned(registry), kFirst);
    // A pull for a node with nothing targeted scans nothing, however many
    // entries wait for other nodes.
    EXPECT_TRUE(plane.bind_for(NodeId(0), 1, 1e-6, queued + 2).empty());
    EXPECT_TRUE(plane.bind_for(NodeId(2), 3, 1e-6, queued + 3).empty());
    EXPECT_EQ(bind_scanned(registry), kFirst);
    // Node 1's pull takes its list's head.
    const auto got = plane.bind_for(NodeId(1), 1, 1e-6, queued + 4);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].block, BlockId(kFirst));
    EXPECT_EQ(bind_scanned(registry), kFirst + 1);
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
