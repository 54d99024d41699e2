// End-to-end demotion on the sim backend: a master-driven run under memory
// pressure must demote cold blocks to disk, unregister their memory
// replicas so later reads go to disk, refresh the buffer gauge, and leave
// an oracle-clean trace including the mig_demote events.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dfs/placement.h"
#include "dyrs/master.h"
#include "dyrs/strategies.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "testing/fixture.h"

namespace dyrs::core {
namespace {

constexpr Bytes kBlock = mib(2);

struct TierRun {
  testing::MiniDfs dfs;
  std::unique_ptr<MigrationMaster> master;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::MemorySink sink;

  TierRun(int num_blocks, Bytes memory_limit, TierPolicy tier)
      : dfs([&] {
          testing::MiniDfs::Options o;
          o.num_nodes = 1;  // all pressure lands on one node
          o.replication = 1;
          o.block_size = kBlock;
          o.placement = std::make_unique<dfs::RoundRobinPlacement>();
          return o;
        }()) {
    MasterConfig cfg;
    cfg.retarget_interval = minutes(10);
    cfg.slave.reference_block = kBlock;
    cfg.slave.memory_limit = memory_limit;
    cfg.tier = tier;
    master = make_dyrs(*dfs.cluster, *dfs.namenode, cfg);
    tracer.set_sink(&sink);
    master->set_observability(obs::ObsContext(&registry, &tracer));
    dfs.client->set_observability(obs::ObsContext(&registry, &tracer));
    dfs.namenode->create_file("/tier/input", kBlock * num_blocks);
    master->migrate_files(JobId(1), {"/tier/input"}, EvictionMode::Explicit);
    dfs.sim.run_until(minutes(2));
  }

  MigrationSlave& slave() { return master->slave(NodeId(0)); }

  /// Reads `block` on the node and returns the medium its `read_done`
  /// trace event names.
  std::string read(BlockId block) {
    dfs.client->read_block(block, NodeId(0), JobId(1), nullptr);
    dfs.sim.run_until(dfs.sim.now() + minutes(1));
    for (auto e = sink.events().rbegin(); e != sink.events().rend(); ++e) {
      if (e->type == "read_done" && e->i64("block") == block.value()) return e->str("medium");
    }
    return "none";
  }

  obs::InvariantReport check_trace() const {
    obs::TraceInvariants oracle;
    oracle.profile = obs::TraceInvariants::Profile::Sim;
    oracle.flag_open_lifecycles = false;  // job 1 still holds its references
    return oracle.check(obs::TraceReader(sink.events()));
  }
};

TierPolicy evict_cold() {
  TierPolicy p;
  p.on_pressure = TierPolicy::OnPressure::EvictColdFirst;
  return p;
}

TEST(TierEviction, PressureDemotesToDiskAndUnregistersReplicas) {
  // 8 blocks into a 2-block memory cap: six demotions, each of which drops
  // the block from the buffer and from the memory-replica registry.
  TierRun run(8, 2 * kBlock, evict_cold());
  EXPECT_EQ(run.master->migrations_completed(), 8);
  EXPECT_EQ(run.slave().demotions(), 6);
  EXPECT_EQ(run.slave().buffers().buffered_count(), 2u);
  EXPECT_EQ(run.slave().buffers().used(), 2 * kBlock);
  EXPECT_EQ(run.dfs.namenode->memory_replica_count(), 2u);

  // The buffer gauge and the demotion counter reflect the final state.
  EXPECT_EQ(run.registry.gauge("node0.tier.memory.used_bytes").value(),
            static_cast<double>(2 * kBlock));
  EXPECT_EQ(run.registry.counter("dyrs.migrations.demoted").value(), 6);

  // The trace carries the demote lifecycle events and stays oracle-clean.
  const auto report = run.check_trace();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.demotions, 6u);
}

TEST(TierEviction, DemotedBlockIsReadFromDisk) {
  // The coldest block is demoted first. It must leave the registry, so its
  // next read is served by the disk; a block still buffered reads from
  // memory. The oracle's demoted-read rule checks the same from the trace.
  TierRun run(4, 2 * kBlock, evict_cold());
  EXPECT_EQ(run.master->migrations_completed(), 4);
  ASSERT_GT(run.slave().demotions(), 0);
  ASSERT_FALSE(run.slave().buffers().contains(BlockId(0)));
  EXPECT_TRUE(run.dfs.namenode->memory_locations(BlockId(0)).empty());
  ASSERT_TRUE(run.slave().buffers().contains(BlockId(3)));

  EXPECT_EQ(run.read(BlockId(0)), "local-disk");
  EXPECT_EQ(run.read(BlockId(3)), "local-memory");
  const auto report = run.check_trace();
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(TierEviction, EvictJobReleasesAllTiersAndRegistry) {
  TierRun run(8, 2 * kBlock, evict_cold());
  ASSERT_EQ(run.slave().buffers().buffered_count(), 2u);
  run.master->evict_job(JobId(1));
  run.dfs.sim.run_until(minutes(3));
  EXPECT_EQ(run.slave().buffers().buffered_count(), 0u);
  EXPECT_EQ(run.slave().buffers().used(), 0);
  EXPECT_EQ(run.dfs.namenode->memory_replica_count(), 0u);
  EXPECT_EQ(run.dfs.cluster->node(NodeId(0)).memory().pinned(), 0);
}

TEST(TierEviction, DefaultPolicyPreservesSingleTierStall) {
  // The default policy (refuse on pressure, watermarks off) is the
  // paper's behaviour: a full buffer stalls the queue, nothing is demoted.
  TierRun run(4, 2 * kBlock, TierPolicy{});
  EXPECT_EQ(run.master->migrations_completed(), 2);
  EXPECT_TRUE(run.slave().stalled());
  EXPECT_EQ(run.slave().demotions(), 0);
  // Ending the job releases the buffers and discards the stalled work.
  run.master->evict_job(JobId(1));
  run.dfs.sim.run_until(minutes(4));
  EXPECT_EQ(run.slave().buffers().buffered_count(), 0u);
  EXPECT_EQ(run.slave().queued_count(), 0);
  EXPECT_EQ(run.master->migrations_completed(), 2);
}

}  // namespace
}  // namespace dyrs::core
