// Golden control-plane digests. A seeded operation sequence (enqueues with
// merges and avoid lists, retarget passes over drifting snapshots with one
// node missing now and then, binds with random slot counts, direct queue
// erases, requeues) runs on a standalone ControlPlane for every
// ordering x binding x trace profile. Each scenario folds what it observes
// into one FNV-1a digest: every bind (block, node, order), every pass's
// TargetingStats and per-entry targets, and every emitted event's type and
// fields. The digests were captured from the engine that materialized the
// whole consideration order on every bind and scored each pass through
// per-pass hash maps; the in-place bind walk and the dense Algorithm 1
// scorer must reproduce every decision bit for bit. The MasterErases row
// adds the erase paths the masters take directly (evict-style walks that
// erase entries through their iterators, and `queue().clear()` on
// failover); its digest was captured from the whole-queue bind walk,
// before the per-target lists existed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/control_plane.h"
#include "obs/trace.h"

namespace dyrs::core {
namespace {

class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void mix_s(const std::string& s) {
    mix(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// splitmix64: the same sequence on every standard library (the std
/// distributions are implementation-defined).
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int below(std::size_t n) { return static_cast<int>(next() % n); }
  bool chance(int percent) { return below(100) < percent; }

 private:
  std::uint64_t s_;
};

enum class Trace { Untraced, AtRetarget, AtBind };

struct Scenario {
  Ordering ordering;
  Binding binding;
  Trace trace;
  std::uint64_t digest;
  bool master_erases = false;  // adds evict-style iterator erases and clear()
};

struct Outcome {
  std::uint64_t digest = 0;
  int binds = 0;
  int avoid_skips = 0;         // bind walks that passed an eligible but avoided entry
  int untargetable_passes = 0;
  int target_events = 0;
  int evict_erases = 0;  // entries erased by evict-style walks
  int clears = 0;
};

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

Outcome run(const Scenario& sc) {
  ControlPlaneConfig cfg;
  cfg.binding = sc.binding;
  cfg.ordering = sc.ordering;
  cfg.target_trace = sc.trace == Trace::AtBind ? ControlPlaneConfig::TargetTrace::AtBind
                                               : ControlPlaneConfig::TargetTrace::AtRetarget;
  ControlPlane plane(cfg);
  obs::Tracer tracer;
  obs::MemorySink sink;
  if (sc.trace != Trace::Untraced) {
    tracer.set_sink(&sink);
    plane.set_observability(obs::ObsContext(nullptr, &tracer));
  }

  // Slaves 0..5 report; node 6 holds replicas but never reports, so blocks
  // placed only there stay untargetable.
  constexpr int kReporting = 6;
  constexpr int kBlocks = 48;
  const double base_spb[kReporting + 1] = {1e-6, 2e-6, 1.5e-6, 4e-6, 1e-6, 3e-6, 2e-6};
  const bool targeted = sc.binding == Binding::LateTargeted;
  Rand rng(0x5eed);
  Digest d;
  Outcome out;
  std::vector<std::pair<BoundMigration, NodeId>> bound;
  std::uint64_t bind_order = 0;
  int passes = 0;
  for (SimTime now = 1; now <= 800; ++now) {
    const int op = rng.below(100);
    if (op < 40) {
      const BlockId block(rng.below(kBlocks));
      std::vector<NodeId> replicas;
      if (rng.chance(6)) {
        replicas.push_back(NodeId(kReporting));
      } else {
        while (replicas.size() < 3) {
          const NodeId n(rng.below(kReporting + 1));
          if (!contains(replicas, n)) replicas.push_back(n);
        }
      }
      std::vector<NodeId> avoid;
      if (rng.chance(25)) {
        avoid.push_back(replicas[static_cast<std::size_t>(rng.below(replicas.size()))]);
      }
      // A merge whose avoid history names the entry's current target leaves
      // that target stale until the next pass.
      const PendingMigration* open = plane.queue().lookup(block);
      if (open != nullptr && open->target.valid() && rng.chance(40)) avoid.push_back(open->target);
      const JobId job(1 + rng.below(5));
      const EvictionMode mode = rng.chance(50) ? EvictionMode::Explicit : EvictionMode::Implicit;
      plane.enqueue(job, mode, block, mib(1 + rng.below(4)), replicas, avoid, now);
    } else if (op < 55) {
      ++passes;
      const int missing = passes % 5 == 0 ? rng.below(kReporting) : -1;
      std::vector<SlaveSnapshot> snaps;
      for (int n = 0; n < kReporting; ++n) {
        if (n == missing) continue;
        const double drift = 1.0 + 0.05 * rng.below(5);
        snaps.push_back({NodeId(n), base_spb[n] * drift, mib(rng.below(4))});
      }
      // A repeated node: its last listed values are the ones that count.
      if (passes % 7 == 3) snaps.push_back({NodeId(2), 5e-6, mib(2)});
      const TargetingStats st = plane.retarget(snaps, now);
      d.mix(0x7a55);
      d.mix(st.assigned);
      d.mix(st.untargetable);
      if (st.untargetable > 0) ++out.untargetable_passes;
      for (const PendingMigration& pm : plane.queue()) {
        d.mix(static_cast<std::uint64_t>(pm.block.value()));
        d.mix(static_cast<std::uint64_t>(pm.target.value()));
      }
    } else if (op < 85) {
      const NodeId node(rng.below(kReporting + 1));
      const int slots = rng.below(4);
      bool avoided = false;
      for (const PendingMigration& pm : plane.queue()) {
        const bool eligible = targeted ? pm.target == node : contains(pm.replicas, node);
        avoided |= eligible && contains(pm.avoid, node);
      }
      const auto got =
          plane.bind_for(node, slots, base_spb[static_cast<std::size_t>(node.value())], now);
      // Fewer binds than slots means the walk visited every entry.
      if (avoided && static_cast<int>(got.size()) < slots) ++out.avoid_skips;
      for (const BoundMigration& m : got) {
        d.mix(0xb17d);
        d.mix(static_cast<std::uint64_t>(m.block.value()));
        d.mix(static_cast<std::uint64_t>(node.value()));
        d.mix(bind_order++);
        bound.emplace_back(m, node);
      }
      out.binds += static_cast<int>(got.size());
    } else if (op < 90) {
      const int kind = sc.master_erases ? rng.below(10) : 0;
      if (kind < 5) {
        d.mix(plane.queue().erase(BlockId(rng.below(kBlocks))) ? 1 : 0);
      } else if (kind < 9) {
        // A master's evict_job: drop the job, erase emptied entries in place.
        const JobId job(1 + rng.below(5));
        PendingQueue& queue = plane.queue();
        std::uint64_t erased = 0;
        for (auto it = queue.begin(); it != queue.end();) {
          it->jobs.erase(job);
          if (it->jobs.empty()) {
            it = queue.erase(it);
            ++erased;
          } else {
            ++it;
          }
        }
        d.mix(0xe71c);
        d.mix(erased);
        out.evict_erases += static_cast<int>(erased);
      } else {
        plane.queue().clear();  // a master failover
        d.mix(0xc1ea);
        ++out.clears;
      }
    } else if (!bound.empty()) {
      const auto k = static_cast<std::size_t>(rng.below(bound.size()));
      auto [m, failed] = std::move(bound[k]);
      bound.erase(bound.begin() + static_cast<std::ptrdiff_t>(k));
      const int requeued = plane.requeue(
          {std::move(m)}, failed, [](JobId job) { return job.value() != 5; },
          [&](JobId job, EvictionMode mode, const BoundMigration& lost) {
            plane.enqueue(job, mode, lost.block, lost.size, lost.replicas, lost.avoid, now);
          },
          now);
      d.mix(0x4e0);
      d.mix(static_cast<std::uint64_t>(requeued));
    }
  }
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type == "mig_target") ++out.target_events;
    d.mix_s(e.type);
    d.mix(static_cast<std::uint64_t>(e.at));
    for (const auto& f : e.fields) {
      d.mix_s(f.key);
      d.mix(static_cast<std::uint64_t>(f.kind));
      d.mix_s(f.str);
      d.mix(static_cast<std::uint64_t>(f.i));
    }
  }
  out.digest = d.value();
  return out;
}

std::string name_of(const Scenario& sc) {
  std::string s = sc.ordering == Ordering::Fifo ? "Fifo" : "Sjf";
  s += sc.binding == Binding::LateTargeted ? "_Targeted" : "_AnyReplica";
  s += "_Reference";  // every row runs the reference sweep, the one engine
  switch (sc.trace) {
    case Trace::Untraced: s += "_Untraced"; break;
    case Trace::AtRetarget: s += "_AtRetarget"; break;
    case Trace::AtBind: s += "_AtBind"; break;
  }
  if (sc.master_erases) s += "_MasterErases";
  return s;
}

void PrintTo(const Scenario& sc, std::ostream* os) { *os << name_of(sc); }

class ControlPlaneGolden : public ::testing::TestWithParam<Scenario> {};

TEST_P(ControlPlaneGolden, DecisionsMatchCapturedDigest) {
  const Scenario& sc = GetParam();
  const Outcome out = run(sc);
  EXPECT_GT(out.binds, 0);
  EXPECT_GT(out.avoid_skips, 0);
  EXPECT_GT(out.untargetable_passes, 0);
  if (sc.trace != Trace::Untraced) {
    EXPECT_GT(out.target_events, 0);
  }
  if (sc.master_erases) {
    EXPECT_GT(out.evict_erases, 0);
    EXPECT_GT(out.clears, 0);
  }
  EXPECT_EQ(out.digest, sc.digest) << std::hex << "0x" << out.digest;
  EXPECT_EQ(run(sc).digest, out.digest);  // and the sequence itself is deterministic
}

constexpr auto kFifo = Ordering::Fifo;
constexpr auto kSjf = Ordering::SmallestJobFirst;
constexpr auto kTargeted = Binding::LateTargeted;
constexpr auto kAny = Binding::LateAnyReplica;

INSTANTIATE_TEST_SUITE_P(
    Matrix, ControlPlaneGolden,
    ::testing::Values(
        Scenario{kFifo, kTargeted, Trace::Untraced, 0xd9912b4777bbc500},
        Scenario{kFifo, kTargeted, Trace::AtRetarget, 0x706956bb44169472},
        Scenario{kFifo, kTargeted, Trace::AtBind, 0x3d1ae26157e98434},
        Scenario{kFifo, kAny, Trace::Untraced, 0xfb69e1fab122a089},
        Scenario{kFifo, kAny, Trace::AtRetarget, 0x8bbcf78c8ac743e2},
        Scenario{kFifo, kAny, Trace::AtBind, 0x83312a1b1215ff84},
        Scenario{kSjf, kTargeted, Trace::Untraced, 0xfe0b4d48cdc06cca},
        Scenario{kSjf, kTargeted, Trace::AtRetarget, 0x09e44f630d343337},
        Scenario{kSjf, kTargeted, Trace::AtBind, 0xbce3854ceb5b639e},
        Scenario{kSjf, kAny, Trace::Untraced, 0xcfffd3ed7fd1f650},
        Scenario{kSjf, kAny, Trace::AtRetarget, 0xf9421f431c0048cb},
        Scenario{kSjf, kAny, Trace::AtBind, 0x58d1273fc6b1535e},
        Scenario{kFifo, kTargeted, Trace::AtRetarget, 0x6e2f5cb764f6cc0a, /*master_erases=*/true}),
    [](const ::testing::TestParamInfo<Scenario>& info) { return name_of(info.param); });

}  // namespace
}  // namespace dyrs::core
