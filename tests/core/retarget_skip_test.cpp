// A fetch pass whose inputs did not move is skipped. With the queue at the
// version the last fetch pass scored, the nodes that pass read are re-read
// in its order; if each reads the same, the pass scores, re-files and
// emits nothing and returns the last pass's stats. Every edit of queued
// state and every changed snapshot defeats the skip, the snapshot-vector
// form never skips, and a plane that skips targets, binds and traces
// exactly as one that never does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/control_plane.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace dyrs::core {
namespace {

std::vector<NodeId> nodes(std::initializer_list<int> ids) {
  std::vector<NodeId> out;
  for (int id : ids) out.emplace_back(id);
  return out;
}

ControlPlaneConfig with_ordering(Ordering ordering) {
  ControlPlaneConfig c;
  c.ordering = ordering;
  return c;
}

/// A traced plane under a fetch whose snapshots a test edits between
/// passes. Four entries over nodes 0-3, every node reporting.
struct SkipPlane {
  explicit SkipPlane(Ordering ordering = Ordering::Fifo) : plane(with_ordering(ordering)) {
    tracer.set_sink(&sink);
    plane.set_observability(obs::ObsContext(&registry, &tracer));
    reporting = {{0, {NodeId(0), 2e-6, 0}},
                 {1, {NodeId(1), 1e-6, 0}},
                 {2, {NodeId(2), 3e-6, mib(1)}},
                 {3, {NodeId(3), 1e-6, 0}}};
    add(1, 0, mib(2), {0, 1}, 0);
    add(1, 1, mib(1), {1, 2}, 1);
    add(2, 2, mib(4), {2, 3}, 2);
    add(2, 3, mib(1), {0, 3}, 3);
    add(3, 0, 0, {}, 4);  // block 0 is wanted by jobs 1 and 3
  }

  void add(int job, int block, Bytes size, std::initializer_list<int> replicas, SimTime now,
           std::initializer_list<int> avoid = {}) {
    plane.enqueue(JobId(job), EvictionMode::Explicit, BlockId(block), size, nodes(replicas),
                  nodes(avoid), now);
  }

  TargetingStats pass(SimTime now) {
    fetched.clear();
    return plane.retarget(fetch, now);
  }

  std::int64_t count(const std::string& name) const {
    const obs::Counter* c = registry.find_counter(name);
    return c == nullptr ? -1 : c->value();
  }
  std::int64_t passes() const { return count("ctrl.retarget.passes"); }
  std::int64_t skipped() const { return count("ctrl.retarget.passes_skipped"); }
  std::int64_t scored() const { return count("ctrl.retarget.entries_scored"); }

  /// Block -> target, and each node's target list in list order.
  std::string targets() {
    std::string out;
    for (const PendingMigration& pm : plane.queue()) {
      out += std::to_string(pm.block.value()) + ">" + std::to_string(pm.target.value()) + " ";
    }
    for (int n = 0; n < 4; ++n) {
      out += '|';
      out += std::to_string(n);
      out += ':';
      plane.queue().visit_targeted(NodeId(n), [&](PendingQueue::iterator it) {
        out += std::to_string(it->block.value()) + ",";
        return true;
      });
    }
    return out;
  }

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::MemorySink sink;
  ControlPlane plane;
  std::map<int, SlaveSnapshot> reporting;  // absent: not reporting
  std::vector<NodeId> fetched;
  TargetScorer::Fetch fetch = [this](NodeId node, SlaveSnapshot& out) {
    fetched.push_back(node);
    auto it = reporting.find(node.value());
    if (it == reporting.end()) return false;
    out = it->second;
    return true;
  };
};

TEST(RetargetSkip, UnchangedInputsSkipThePass) {
  for (const Ordering ordering : {Ordering::Fifo, Ordering::SmallestJobFirst}) {
    SCOPED_TRACE(static_cast<int>(ordering));
    SkipPlane t(ordering);
    const TargetingStats first = t.pass(10);
    const std::vector<NodeId> order = t.fetched;
    const std::string targets = t.targets();
    const std::size_t events = t.sink.events().size();
    const std::int64_t scored = t.scored();
    const std::int64_t snapshots = t.count("ctrl.retarget.snapshot_nodes");
    ASSERT_EQ(t.passes(), 1);
    ASSERT_EQ(t.skipped(), 0);
    ASSERT_EQ(first.assigned, 4u);

    for (SimTime now = 11; now <= 12; ++now) {
      const TargetingStats again = t.pass(now);
      EXPECT_EQ(t.fetched, order);  // the same nodes, in the same order
      EXPECT_EQ(again.assigned, first.assigned);
      EXPECT_EQ(again.untargetable, first.untargetable);
      EXPECT_EQ(again.snapshot_nodes, first.snapshot_nodes);
    }
    EXPECT_EQ(t.passes(), 1);
    EXPECT_EQ(t.skipped(), 2);
    EXPECT_EQ(t.scored(), scored);  // nothing scored
    EXPECT_EQ(t.count("ctrl.retarget.snapshot_nodes"),
              snapshots + 2 * static_cast<std::int64_t>(order.size()));
    EXPECT_EQ(t.sink.events().size(), events);  // nothing emitted
    EXPECT_EQ(t.targets(), targets);            // nothing re-filed
  }
}

/// An edit made between two passes.
struct Edit {
  const char* name;
  std::function<void(SkipPlane&)> apply;
};

std::vector<Edit> edits_that_defeat_the_skip() {
  return {
      {"push", [](SkipPlane& t) { t.add(4, 4, mib(1), {1, 3}, 5); }},
      {"erase(it)",
       [](SkipPlane& t) { t.plane.queue().erase(t.plane.queue().find(BlockId(1))); }},
      {"erase(block)", [](SkipPlane& t) { ASSERT_TRUE(t.plane.queue().erase(BlockId(2))); }},
      {"clear",
       [](SkipPlane& t) {
         t.plane.queue().clear();
         t.add(1, 0, mib(2), {0, 1}, 5);  // a pass needs a queued entry
       }},
      {"merge growing the avoid list", [](SkipPlane& t) { t.add(1, 0, 0, {}, 5, {0}); }},
      {"drop_job",
       [](SkipPlane& t) {
         ASSERT_TRUE(t.plane.queue().drop_job(t.plane.queue().find(BlockId(0)), JobId(3)));
       }},
      {"changed estimate", [](SkipPlane& t) { t.reporting[1].sec_per_byte = 5e-6; }},
      {"changed queued bytes", [](SkipPlane& t) { t.reporting[3].queued_bytes = mib(64); }},
      {"node going silent", [](SkipPlane& t) { t.reporting.erase(0); }},
  };
}

TEST(RetargetSkip, EachEditDefeatsTheSkip) {
  for (const Ordering ordering : {Ordering::Fifo, Ordering::SmallestJobFirst}) {
    for (const Edit& edit : edits_that_defeat_the_skip()) {
      SCOPED_TRACE(std::string(edit.name) + (ordering == Ordering::Fifo ? " fifo" : " sjf"));
      SkipPlane t(ordering);
      t.pass(10);
      edit.apply(t);
      const std::int64_t scored = t.scored();
      const TargetingStats stats = t.pass(11);
      EXPECT_EQ(t.passes(), 2);
      EXPECT_EQ(t.skipped(), 0);
      EXPECT_EQ(t.scored(),
                scored + static_cast<std::int64_t>(stats.assigned + stats.untargetable));
      // A re-read that found a change hands its reads to the pass: each
      // node is still read once.
      std::vector<NodeId> sorted = t.fetched;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
      EXPECT_EQ(stats.snapshot_nodes, t.fetched.size());
    }
  }
}

TEST(RetargetSkip, ANodeComingBackDefeatsTheSkip) {
  SkipPlane t;
  const SlaveSnapshot node3 = t.reporting.at(3);
  t.reporting.erase(3);
  t.pass(10);
  t.pass(11);
  ASSERT_EQ(t.skipped(), 1);
  EXPECT_FALSE(t.plane.queue().lookup(BlockId(2))->target == NodeId(3));
  t.reporting[3] = node3;
  t.pass(12);
  EXPECT_EQ(t.passes(), 2);
  EXPECT_EQ(t.skipped(), 1);
  EXPECT_EQ(t.plane.queue().lookup(BlockId(2))->target, NodeId(3));
}

// An edit that changes nothing queued keeps the version, so the pass still
// skips: dropping a job the entry does not have, erasing an absent block.
TEST(RetargetSkip, NoOpEditsKeepTheSkip) {
  SkipPlane t;
  t.pass(10);
  const std::uint64_t version = t.plane.queue().version();
  EXPECT_FALSE(t.plane.queue().drop_job(t.plane.queue().find(BlockId(1)), JobId(9)));
  EXPECT_FALSE(t.plane.queue().erase(BlockId(42)));
  EXPECT_EQ(t.plane.queue().version(), version);
  t.pass(11);
  EXPECT_EQ(t.skipped(), 1);
}

TEST(RetargetSkip, VectorFormNeverSkips) {
  SkipPlane t;
  std::vector<SlaveSnapshot> snaps;
  for (const auto& [node, s] : t.reporting) snaps.push_back(s);
  t.plane.retarget(snaps, 10);
  const std::int64_t scored = t.scored();
  t.plane.retarget(snaps, 11);
  EXPECT_EQ(t.passes(), 2);
  EXPECT_EQ(t.skipped(), 0);
  EXPECT_EQ(t.scored(), 2 * scored);

  // Nor does it leave a fetch pass anything to skip against: it wrote the
  // targets last, so the next fetch pass runs even over the same inputs.
  t.pass(12);
  const std::string fetch_targets = t.targets();
  snaps[1].sec_per_byte = 9e-6;  // moves block 1 off node 1
  t.plane.retarget(snaps, 13);
  ASSERT_NE(t.targets(), fetch_targets);
  t.pass(14);
  EXPECT_EQ(t.skipped(), 0);
  EXPECT_EQ(t.targets(), fetch_targets);
}

// Differential: seeded random edits and passes drive a plane that takes
// its snapshots through a fetch (and so skips) and one that is handed all
// of them up front (and never skips). Both must target, file, bind and
// trace identically, under both orderings.
TEST(RetargetSkip, SkippingPlaneMatchesOneThatNeverSkips) {
  for (const Ordering ordering : {Ordering::Fifo, Ordering::SmallestJobFirst}) {
    std::int64_t skipped = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(seed);
      SkipPlane lazy(ordering);
      SkipPlane full(ordering);
      Rng rng(seed);
      for (SimTime now = 10; now < 400; ++now) {
        const auto pick = rng.uniform_int(0, 99);
        const BlockId block(rng.uniform_int(0, 11));
        const JobId job(1 + rng.uniform_int(0, 3));
        if (pick < 20) {
          const int a = static_cast<int>(rng.uniform_int(0, 3));
          const int b = (a + 1 + static_cast<int>(rng.uniform_int(0, 2))) % 4;
          std::vector<NodeId> avoid;
          if (rng.bernoulli(0.1)) avoid.push_back(NodeId(a));
          const Bytes size = mib(1 + rng.uniform_int(0, 3));
          for (SkipPlane* t : {&lazy, &full}) {
            t->plane.enqueue(job, EvictionMode::Explicit, block, size, nodes({a, b}), avoid, now);
          }
        } else if (pick < 25) {
          for (SkipPlane* t : {&lazy, &full}) {
            auto it = t->plane.queue().find(block);
            if (it != t->plane.queue().end()) t->plane.queue().drop_job(it, job);
          }
        } else if (pick < 28) {
          for (SkipPlane* t : {&lazy, &full}) t->plane.queue().erase(block);
        } else if (pick < 35) {
          const int node = static_cast<int>(rng.uniform_int(0, 3));
          const bool silence = rng.bernoulli(0.3);
          const double spb = 1e-6 * static_cast<double>(1 + rng.uniform_int(0, 3));
          const Bytes queued = mib(rng.uniform_int(0, 2));
          for (SkipPlane* t : {&lazy, &full}) {
            if (silence) {
              t->reporting.erase(node);
            } else {
              t->reporting[node] = {NodeId(node), spb, queued};
            }
          }
        } else if (pick < 45) {
          const NodeId node(rng.uniform_int(0, 3));
          const int slots = static_cast<int>(rng.uniform_int(1, 2));
          const auto a = lazy.plane.bind_for(node, slots, 1e-6, now);
          const auto b = full.plane.bind_for(node, slots, 1e-6, now);
          ASSERT_EQ(a.size(), b.size());
          for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i].block, b[i].block);
        } else if (!full.reporting.empty()) {  // as both masters, no pass with none
          lazy.pass(now);
          std::vector<SlaveSnapshot> snaps;
          for (const auto& [node, s] : full.reporting) snaps.push_back(s);
          full.plane.retarget(snaps, now);
          ASSERT_EQ(lazy.targets(), full.targets()) << "at " << now;
        }
      }
      ASSERT_EQ(lazy.sink.events().size(), full.sink.events().size());
      for (std::size_t i = 0; i < lazy.sink.events().size(); ++i) {
        const obs::TraceEvent& a = lazy.sink.events()[i];
        const obs::TraceEvent& b = full.sink.events()[i];
        ASSERT_EQ(a.type, b.type) << "event " << i;
        ASSERT_EQ(a.at, b.at) << "event " << i;
        ASSERT_EQ(a.fields.size(), b.fields.size()) << "event " << i;
        for (std::size_t f = 0; f < a.fields.size(); ++f) {
          ASSERT_EQ(a.fields[f].key, b.fields[f].key) << "event " << i;
          ASSERT_EQ(a.fields[f].str, b.fields[f].str) << "event " << i;
          ASSERT_EQ(a.fields[f].i, b.fields[f].i) << "event " << i;
        }
      }
      EXPECT_EQ(full.skipped(), 0);
      skipped += lazy.skipped();
    }
    EXPECT_GT(skipped, 0);  // the program does reach the skip
  }
}

}  // namespace
}  // namespace dyrs::core
