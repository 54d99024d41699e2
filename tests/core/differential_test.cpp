// Sim-vs-rt differential test over the shared migration control plane.
//
// Both backends drive the same core::ControlPlane; given the same cluster
// shape (node bandwidths, block sizes, replica placement) and a single
// Algorithm 1 pass at enqueue time, the (block -> node) binding decisions
// must be identical — the sim supplies virtual time and the rt runtime
// real threads, but policy lives in one place. The comparison is on
// per-node projections of the binding log: the order *within* a node is a
// pure policy outcome on both backends, while the interleaving *across*
// nodes depends on which worker thread wakes first.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "dfs/placement.h"
#include "dyrs/master.h"
#include "dyrs/strategies.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "rt/master.h"
#include "testing/fixture.h"

namespace dyrs {
namespace {

using namespace std::chrono_literals;

// Shared cluster shape: 4 nodes, even ones fast, block i placed on nodes
// (i, i+1) mod 4 (the sim side gets this from RoundRobinPlacement).
constexpr int kNodes = 4;
constexpr Bytes kBlock = mib(2);

Rate bandwidth_of(int node) { return node % 2 == 0 ? mib_per_sec(100) : mib_per_sec(50); }

using Projection = std::map<NodeId, std::vector<BlockId>>;

Projection per_node(const std::vector<std::pair<BlockId, NodeId>>& log) {
  Projection proj;
  for (const auto& [block, node] : log) proj[node].push_back(block);
  return proj;
}

struct Outcome {
  Projection bindings;
  std::vector<obs::TraceEvent> events;
};

/// One file of `blocks` blocks per (job, count) pair, migrated in order.
/// The retarget interval is set beyond the run length so only the
/// enqueue-time Algorithm 1 pass assigns targets — the same single-pass
/// decision the rt backend makes inside migrate().
Outcome sim_run(core::Ordering ordering, const std::vector<std::pair<JobId, int>>& jobs,
            int num_nodes = kNodes, int replication = 2, bool heterogeneous = true) {
  testing::MiniDfs::Options o;
  o.num_nodes = num_nodes;
  o.replication = replication;
  o.block_size = kBlock;
  o.placement = std::make_unique<dfs::RoundRobinPlacement>();
  testing::MiniDfs dfs(std::move(o));
  if (heterogeneous) {
    for (int i = 0; i < num_nodes; ++i) {
      dfs.cluster->node(NodeId(i)).disk().set_nominal_bandwidth(bandwidth_of(i));
    }
  }

  core::MasterConfig cfg;
  cfg.ordering = ordering;
  cfg.retarget_interval = minutes(10);
  cfg.slave.reference_block = kBlock;
  auto master = core::make_dyrs(*dfs.cluster, *dfs.namenode, cfg);

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::MemorySink sink;
  tracer.set_sink(&sink);
  master->set_observability(obs::ObsContext(&registry, &tracer));

  long expected = 0;
  for (const auto& [job, count] : jobs) {
    const std::string file = "/input-" + std::to_string(job.value());
    dfs.namenode->create_file(file, kBlock * count);
    master->migrate_files(job, {file}, core::EvictionMode::Explicit);
    expected += count;
  }
  dfs.sim.run_until(minutes(2));
  EXPECT_EQ(master->migrations_completed(), expected);
  return {per_node(master->binding_log()), sink.events()};
}

Outcome rt_run(core::Ordering ordering, const std::vector<std::pair<JobId, int>>& jobs,
           int num_nodes = kNodes, int replication = 2, bool heterogeneous = true) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);

  rt::RtMaster::Options options;
  for (int n = 0; n < num_nodes; ++n) {
    rt::RtSlave::Options s;
    s.node = NodeId(n);
    s.disk_bandwidth = heterogeneous ? bandwidth_of(n) : mib_per_sec(100);
    s.queue_capacity = 2;
    s.reference_block = kBlock;
    options.slaves.push_back(s);
  }
  options.retarget_interval = 60s;  // only migrate()'s pass assigns targets
  options.ordering = ordering;
  options.obs = obs::ObsContext(&registry, &tracer);
  rt::RtMaster master(std::move(options));

  // Mirror the sim's block-id allocation and round-robin placement. All
  // jobs go into one migrate() call: the sim enqueues everything at t=0
  // before any event fires, so the rt queue must also reach its full
  // contents before any worker pulls (migrate holds the master lock).
  std::vector<rt::RtBlock> blocks;
  int next_block = 0;
  for (const auto& [job, count] : jobs) {
    for (int i = 0; i < count; ++i, ++next_block) {
      rt::RtBlock b;
      b.block = BlockId(next_block);
      b.size = kBlock;
      for (int r = 0; r < replication; ++r) b.replicas.push_back(NodeId((next_block + r) % num_nodes));
      b.job = job;
      blocks.push_back(std::move(b));
    }
  }
  master.migrate(blocks);
  EXPECT_TRUE(master.wait_idle(30s));
  Projection bindings = per_node(master.binding_log());
  master.shutdown();  // quiesce emitters before reading buffers
  return {std::move(bindings), sink.merge_thread_buffers()};
}

void check_traces(const Outcome& sim, const Outcome& rt) {
  obs::TraceInvariants sim_oracle;
  sim_oracle.profile = obs::TraceInvariants::Profile::Sim;
  sim_oracle.flag_open_lifecycles = true;
  const auto sim_report = sim_oracle.check(obs::TraceReader(sim.events));
  EXPECT_TRUE(sim_report.ok()) << sim_report.summary();

  obs::TraceInvariants rt_oracle;
  rt_oracle.profile = obs::TraceInvariants::Profile::Rt;
  rt_oracle.flag_open_lifecycles = true;
  // The rt master samples est_s_per_block probes at migrate() time, so the
  // Algorithm 1 replay applies. The merged trace is per-block grouped, not
  // chronological, so the replayed load accounting understates the loads
  // the live pass saw — the generous margin absorbs that (a fast node here
  // is exactly 2x a slow one).
  rt_oracle.check_policy = true;
  rt_oracle.policy_margin = 2.0;
  rt_oracle.policy_reference_block = kBlock;
  const auto rt_report = rt_oracle.check(obs::TraceReader(rt.events));
  EXPECT_TRUE(rt_report.ok()) << rt_report.summary();
}

TEST(Differential, FifoHeterogeneousBindingsAreIdentical) {
  // 16 blocks, one job, FIFO, 2x bandwidth spread: which node each block
  // binds to is decided entirely by the shared Algorithm 1 pass. Each rt
  // slave holds two blocks and reads and reports both in one drain cycle.
  const std::vector<std::pair<JobId, int>> jobs = {{JobId(1), 16}};
  const Outcome sim_out = sim_run(core::Ordering::Fifo, jobs);
  const Outcome rt_out = rt_run(core::Ordering::Fifo, jobs);
  ASSERT_FALSE(sim_out.bindings.empty());
  EXPECT_EQ(sim_out.bindings, rt_out.bindings);
  // The fast nodes must out-bind the slow ones on both backends.
  std::size_t fast = 0, slow = 0;
  for (const auto& [node, blocks] : sim_out.bindings) {
    (node.value() % 2 == 0 ? fast : slow) += blocks.size();
  }
  EXPECT_GT(fast, slow);
  check_traces(sim_out, rt_out);
}

TEST(Differential, SmallestJobFirstBindsSmallJobFirstOnBoth) {
  // Job 1 has 6 blocks (0..5), job 2 a single block (6). Single-replica
  // round-robin placement on 2 equal nodes puts block 6 on node 0; under
  // SJF it must be node 0's first binding on both backends.
  const std::vector<std::pair<JobId, int>> jobs = {{JobId(1), 6}, {JobId(2), 1}};
  const Outcome sim_out = sim_run(core::Ordering::SmallestJobFirst, jobs, /*num_nodes=*/2,
                          /*replication=*/1, /*heterogeneous=*/false);
  const Outcome rt_out = rt_run(core::Ordering::SmallestJobFirst, jobs, /*num_nodes=*/2,
                        /*replication=*/1, /*heterogeneous=*/false);
  EXPECT_EQ(sim_out.bindings, rt_out.bindings);
  ASSERT_TRUE(sim_out.bindings.count(NodeId(0)));
  ASSERT_FALSE(sim_out.bindings.at(NodeId(0)).empty());
  EXPECT_EQ(sim_out.bindings.at(NodeId(0)).front(), BlockId(6));
  // Single-replica blocks leave Algorithm 1 no choice: every block binds
  // at its only holder, on both backends.
  EXPECT_EQ(sim_out.bindings.at(NodeId(0)),
            (std::vector<BlockId>{BlockId(6), BlockId(0), BlockId(2), BlockId(4)}));
  EXPECT_EQ(sim_out.bindings.at(NodeId(1)),
            (std::vector<BlockId>{BlockId(1), BlockId(3), BlockId(5)}));
  check_traces(sim_out, rt_out);
}

// --- tier decisions ------------------------------------------------------
// Both backends run the same BufferManager against the same TierPolicy, so
// under identical bindings the per-node sequence of tier decisions
// (admissions and pressure demotions) must be identical too — the sim
// admits at migration start and the rt backend at settlement, but per node
// both process blocks serialized in binding order with every prior block
// already resident.

using TierLog = std::map<NodeId, std::vector<core::BufferManager::TierDecision>>;

struct TierOutcome {
  TierLog logs;
  long demotions = 0;
  std::vector<obs::TraceEvent> events;
};

TierOutcome sim_tier_run(core::TierPolicy tier, Bytes limit,
                         const std::vector<std::pair<JobId, int>>& jobs) {
  testing::MiniDfs::Options o;
  o.num_nodes = kNodes;
  o.replication = 2;
  o.block_size = kBlock;
  o.placement = std::make_unique<dfs::RoundRobinPlacement>();
  testing::MiniDfs dfs(std::move(o));
  for (int i = 0; i < kNodes; ++i) {
    dfs.cluster->node(NodeId(i)).disk().set_nominal_bandwidth(bandwidth_of(i));
  }

  core::MasterConfig cfg;
  cfg.retarget_interval = minutes(10);
  cfg.slave.reference_block = kBlock;
  cfg.slave.memory_limit = limit;
  cfg.tier = tier;
  auto master = core::make_dyrs(*dfs.cluster, *dfs.namenode, cfg);

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::MemorySink sink;
  tracer.set_sink(&sink);
  master->set_observability(obs::ObsContext(&registry, &tracer));

  long expected = 0;
  for (const auto& [job, count] : jobs) {
    const std::string file = "/input-" + std::to_string(job.value());
    dfs.namenode->create_file(file, kBlock * count);
    master->migrate_files(job, {file}, core::EvictionMode::Explicit);
    expected += count;
  }
  dfs.sim.run_until(minutes(2));
  EXPECT_EQ(master->migrations_completed(), expected);

  TierOutcome out;
  for (int n = 0; n < kNodes; ++n) {
    const auto& slave = master->slave(NodeId(n));
    out.logs[NodeId(n)] = slave.buffers().tier_log();
    out.demotions += slave.demotions();
  }
  out.events = sink.events();
  return out;
}

TierOutcome rt_tier_run(core::TierPolicy tier, Bytes limit,
                        const std::vector<std::pair<JobId, int>>& jobs) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);

  rt::RtMaster::Options options;
  for (int n = 0; n < kNodes; ++n) {
    rt::RtSlave::Options s;
    s.node = NodeId(n);
    s.disk_bandwidth = bandwidth_of(n);
    s.queue_capacity = 2;
    s.reference_block = kBlock;
    s.memory_capacity = limit;
    options.slaves.push_back(s);
  }
  options.retarget_interval = 60s;
  options.tier = tier;  // the master's policy is every slave's
  options.obs = obs::ObsContext(&registry, &tracer);
  rt::RtMaster master(std::move(options));

  std::vector<rt::RtBlock> blocks;
  int next_block = 0;
  for (const auto& [job, count] : jobs) {
    for (int i = 0; i < count; ++i, ++next_block) {
      rt::RtBlock b;
      b.block = BlockId(next_block);
      b.size = kBlock;
      for (int r = 0; r < 2; ++r) b.replicas.push_back(NodeId((next_block + r) % kNodes));
      b.job = job;
      blocks.push_back(std::move(b));
    }
  }
  master.migrate(blocks);
  EXPECT_TRUE(master.wait_idle(30s));

  TierOutcome out;
  for (int n = 0; n < kNodes; ++n) {
    out.logs[NodeId(n)] = master.slave(NodeId(n)).tier_log();
    out.demotions += master.slave(NodeId(n)).demotions();
  }
  master.shutdown();
  out.events = sink.merge_thread_buffers();
  return out;
}

void check_tier_traces(const TierOutcome& sim, const TierOutcome& rt) {
  obs::TraceInvariants sim_oracle;
  sim_oracle.profile = obs::TraceInvariants::Profile::Sim;
  const auto sim_report = sim_oracle.check(obs::TraceReader(sim.events));
  EXPECT_TRUE(sim_report.ok()) << sim_report.summary();
  EXPECT_EQ(sim_report.demotions, static_cast<std::size_t>(sim.demotions));

  obs::TraceInvariants rt_oracle;
  rt_oracle.profile = obs::TraceInvariants::Profile::Rt;
  const auto rt_report = rt_oracle.check(obs::TraceReader(rt.events));
  EXPECT_TRUE(rt_report.ok()) << rt_report.summary();
  EXPECT_EQ(rt_report.demotions, static_cast<std::size_t>(rt.demotions));
}

TEST(Differential, EvictColdFirstTierDecisionsAreIdentical) {
  // A 2-block memory cap with unbounded SSD: every node's third admission
  // must demote its coldest resident block, on both backends, in the same
  // per-node order.
  const std::vector<std::pair<JobId, int>> jobs = {{JobId(1), 16}};
  core::TierPolicy tier;
  tier.on_pressure = core::TierPolicy::OnPressure::EvictColdFirst;

  const TierOutcome sim_out = sim_tier_run(tier, 2 * kBlock, jobs);
  const TierOutcome rt_out = rt_tier_run(tier, 2 * kBlock, jobs);

  EXPECT_GT(sim_out.demotions, 0);
  EXPECT_EQ(sim_out.demotions, rt_out.demotions);
  EXPECT_EQ(sim_out.logs, rt_out.logs);
  check_tier_traces(sim_out, rt_out);
}

TEST(Differential, WatermarkDemotionsAreIdentical) {
  // Watermarks with refuse-admission pressure: crossing 75% of the 4-block
  // cap drains memory down to 50% by demoting cold blocks. The drain keeps
  // admissions from ever being refused, and the decision sequence must
  // match across backends.
  const std::vector<std::pair<JobId, int>> jobs = {{JobId(1), 16}};
  core::TierPolicy tier;
  tier.high_watermark = 0.75;
  tier.low_watermark = 0.5;
  tier.on_pressure = core::TierPolicy::OnPressure::RefuseAdmission;

  const TierOutcome sim_out = sim_tier_run(tier, 4 * kBlock, jobs);
  const TierOutcome rt_out = rt_tier_run(tier, 4 * kBlock, jobs);

  EXPECT_GT(sim_out.demotions, 0);
  EXPECT_EQ(sim_out.demotions, rt_out.demotions);
  EXPECT_EQ(sim_out.logs, rt_out.logs);
  check_tier_traces(sim_out, rt_out);
}

}  // namespace
}  // namespace dyrs
