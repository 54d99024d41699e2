#include "dyrs/master.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dyrs/strategies.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "testing/fixture.h"

namespace dyrs::core {
namespace {

using dyrs::testing::MiniDfs;

struct MasterFixture : ::testing::Test {
  explicit MasterFixture(int num_nodes = 4)
      : dfs({.num_nodes = num_nodes,
             .disk_bw = mib_per_sec(64),
             .seek_alpha = 0.0,
             .replication = 3,
             .block_size = mib(64)}) {}

  MasterConfig config() {
    MasterConfig c;
    c.slave.heartbeat_interval = seconds(1);
    c.slave.reference_block = mib(64);
    c.retarget_interval = milliseconds(500);
    return c;
  }

  /// Traces `master` into `sink`; cancels are read back as `mig_abort`.
  void trace(MigrationMaster& master) {
    tracer.set_sink(&sink);
    master.set_observability(obs::ObsContext(&registry, &tracer));
  }

  std::vector<obs::TraceEvent> aborts() const {
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent& e : sink.events()) {
      if (e.type == "mig_abort") out.push_back(e);
    }
    return out;
  }

  /// Completed migrations per node, as each slave counts them.
  std::map<NodeId, long> completed_per_node(const MigrationMaster& master) const {
    std::map<NodeId, long> out;
    for (NodeId id : dfs.cluster->node_ids()) out[id] = master.slave(id).migrations_completed();
    return out;
  }

  MiniDfs dfs;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::MemorySink sink;
};

TEST_F(MasterFixture, MigratesWholeFile) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  const auto& f = dfs.namenode->create_file("/input", mib(64) * 8);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  EXPECT_EQ(master->pending_count(), 8u);
  dfs.sim.run_until(seconds(30));
  EXPECT_EQ(master->migrations_completed(), 8);
  EXPECT_EQ(master->pending_count(), 0u);
  for (BlockId b : f.blocks) EXPECT_TRUE(dfs.namenode->in_memory(b));
}

TEST_F(MasterFixture, LateBindingKeepsQueuesShallow) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  dfs.namenode->create_file("/input", mib(64) * 40);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(2));
  // With queue capacity 1 (1s heartbeat / 1s block), each slave holds at
  // most 1 queued + 1 active; the rest remain pending at the master.
  for (NodeId id : dfs.cluster->node_ids()) {
    EXPECT_LE(master->slave(id).queued_count(), 1);
    EXPECT_LE(master->slave(id).in_flight_count(), 1);
  }
  EXPECT_GT(master->pending_count(), 20u);
}

TEST_F(MasterFixture, EagerBindingPushesEverythingImmediately) {
  auto master = make_ignem(*dfs.cluster, *dfs.namenode, config());
  dfs.namenode->create_file("/input", mib(64) * 40);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  EXPECT_EQ(master->pending_count(), 0u);
  EXPECT_EQ(master->bound_count(), 40u);
  // Concurrent execution up to the per-slave copy-thread cap; everything
  // else waits in the slaves' local queues, nothing at the master.
  const int cap = master->config().slave.max_concurrent_migrations;
  int in_flight = 0, local = 0;
  for (NodeId id : dfs.cluster->node_ids()) {
    EXPECT_LE(master->slave(id).in_flight_count(), cap);
    in_flight += master->slave(id).in_flight_count();
    local += master->slave(id).in_flight_count() + master->slave(id).queued_count();
  }
  EXPECT_EQ(in_flight, cap * dfs.cluster->size());
  EXPECT_EQ(local, 40);
}

// Ignem binds at submission; a block none of whose replica holders is
// reachable cannot bind anywhere, so its lifecycle must end as a recorded
// cancel instead of vanishing from the pending list unrecorded.
TEST_F(MasterFixture, EagerBindingRecordsUnbindableBlockAsCancelled) {
  auto master = make_ignem(*dfs.cluster, *dfs.namenode, config());
  trace(*master);
  const auto& f = dfs.namenode->create_file("/input", mib(64));
  for (NodeId n : dfs.namenode->raw_replicas(f.blocks[0])) {
    dfs.namenode->datanode(n)->crash_process();
  }
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(10));
  EXPECT_EQ(master->pending_count(), 0u);
  EXPECT_EQ(master->bound_count(), 0u);
  const auto cancels = aborts();
  ASSERT_EQ(cancels.size(), 1u);
  EXPECT_EQ(cancels[0].i64("block"), f.blocks[0].value());
  EXPECT_EQ(cancels[0].str("reason"), to_string(CancelReason::HeartbeatLoss));
  EXPECT_EQ(registry.find_counter("dyrs.migrations.enqueued")->value(), 1);
  EXPECT_EQ(registry.find_counter("dyrs.migrations.cancelled")->value(), 1);
  obs::TraceInvariants oracle;
  oracle.profile = obs::TraceInvariants::Profile::Sim;
  oracle.flag_open_lifecycles = true;
  const auto report = oracle.check(obs::TraceReader(sink.events()));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.lifecycles_closed, 1u);
}

TEST_F(MasterFixture, DyrsAvoidsSlowNode) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  // Node 0 is crippled by heavy interference.
  for (int i = 0; i < 6; ++i) dfs.cluster->node(NodeId(0)).disk().start_interference();
  dfs.namenode->create_file("/input", mib(64) * 30);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(minutes(3));
  EXPECT_EQ(master->migrations_completed(), 30);
  auto per_node = completed_per_node(*master);
  // The slow node should have done far fewer migrations than any fast one.
  for (NodeId id : dfs.cluster->node_ids()) {
    if (id == NodeId(0)) continue;
    EXPECT_GT(per_node[id], per_node[NodeId(0)]) << "node " << id;
  }
}

TEST_F(MasterFixture, IgnemIgnoresSlowNode) {
  auto master = make_ignem(*dfs.cluster, *dfs.namenode, config());
  for (int i = 0; i < 6; ++i) dfs.cluster->node(NodeId(0)).disk().start_interference();
  dfs.namenode->create_file("/input", mib(64) * 32);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(minutes(10));
  auto per_node = completed_per_node(*master);
  // Random binding: the slow node gets its proportional share (~1/4 of 32
  // with 3-way replication on 4 nodes -> every node is a holder of 3/4 of
  // blocks). Expect it well above zero, unlike DYRS.
  EXPECT_GT(per_node[NodeId(0)], 3);
}

TEST_F(MasterFixture, MissedReadCancelsPendingMigration) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  trace(*master);
  const auto& f = dfs.namenode->create_file("/input", mib(64) * 20);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Implicit);
  // A read for a still-pending block arrives immediately.
  const BlockId victim = f.blocks[19];
  master->on_read_started(victim, JobId(1));
  dfs.sim.run_until(minutes(2));
  EXPECT_EQ(master->migrations_completed(), 19);
  const auto cancels = aborts();
  ASSERT_EQ(cancels.size(), 1u);
  EXPECT_EQ(cancels[0].i64("block"), victim.value());
  EXPECT_EQ(cancels[0].str("reason"), to_string(CancelReason::MissedRead));
  EXPECT_FALSE(dfs.namenode->in_memory(victim));
}

TEST_F(MasterFixture, IgnemDoesNotCancelMissedReads) {
  auto master = make_ignem(*dfs.cluster, *dfs.namenode, config());
  trace(*master);
  const auto& f = dfs.namenode->create_file("/input", mib(64) * 8);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Implicit);
  master->on_read_started(f.blocks[0], JobId(1));
  dfs.sim.run_until(minutes(2));
  EXPECT_EQ(master->migrations_completed(), 8);  // wasted work included
  EXPECT_TRUE(aborts().empty());
}

TEST_F(MasterFixture, ImplicitEvictionAfterMemoryRead) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  const auto& f = dfs.namenode->create_file("/input", mib(64));
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Implicit);
  dfs.sim.run_until(seconds(10));
  const BlockId b = f.blocks[0];
  ASSERT_TRUE(dfs.namenode->in_memory(b));
  const NodeId holder = dfs.namenode->memory_locations(b)[0];
  dfs::ReadInfo info;
  info.block = b;
  info.source = holder;
  info.medium = dfs::ReadMedium::LocalMemory;
  master->on_read_completed(b, JobId(1), info);
  EXPECT_FALSE(dfs.namenode->in_memory(b));
}

TEST_F(MasterFixture, ExplicitModeSurvivesReadsUntilEvictCommand) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  const auto& f = dfs.namenode->create_file("/input", mib(64));
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(10));
  const BlockId b = f.blocks[0];
  const NodeId holder = dfs.namenode->memory_locations(b)[0];
  dfs::ReadInfo info;
  info.block = b;
  info.source = holder;
  info.medium = dfs::ReadMedium::LocalMemory;
  master->on_read_completed(b, JobId(1), info);
  EXPECT_TRUE(dfs.namenode->in_memory(b));
  master->evict_job(JobId(1));
  EXPECT_FALSE(dfs.namenode->in_memory(b));
}

// A pulse skips a slave with nothing to do, but not one whose memory gauge
// lags its buffers: the gauge keeps the value a heartbeat would have set.
TEST_F(MasterFixture, IdleSlaveGaugeFollowsItsBuffersAtThePulse) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  trace(*master);
  const auto& f = dfs.namenode->create_file("/input", mib(64));
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(10));
  const NodeId holder = dfs.namenode->memory_locations(f.blocks[0])[0];
  const obs::Gauge* gauge =
      registry.find_gauge("node" + std::to_string(holder.value()) + ".tier.memory.used_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value(), static_cast<double>(mib(64)));

  // Evicting frees the buffer between pulses; the slave is idle from now
  // on, and its gauge moves at the next pulse, as a heartbeat would move it.
  master->evict_job(JobId(1));
  EXPECT_EQ(master->slave(holder).buffers().used(), 0);
  EXPECT_EQ(gauge->value(), static_cast<double>(mib(64)));
  dfs.sim.run_until(seconds(11) + milliseconds(500));
  EXPECT_EQ(gauge->value(), 0.0);
  EXPECT_TRUE(master->slave(holder).idle());
}

TEST_F(MasterFixture, EvictJobClearsPendingToo) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  dfs.namenode->create_file("/input", mib(64) * 30);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  EXPECT_GT(master->pending_count(), 0u);
  master->evict_job(JobId(1));
  EXPECT_EQ(master->pending_count(), 0u);
  dfs.sim.run_until(seconds(30));
  // Bound/in-flight migrations were cancelled as well.
  EXPECT_EQ(dfs.namenode->memory_replica_count(), 0u);
}

TEST_F(MasterFixture, SharedBlockAcrossJobs) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  const auto& f = dfs.namenode->create_file("/input", mib(64));
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  master->migrate_files(JobId(2), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(10));
  EXPECT_EQ(master->migrations_completed(), 1);  // one migration serves both
  master->evict_job(JobId(1));
  EXPECT_TRUE(dfs.namenode->in_memory(f.blocks[0]));
  master->evict_job(JobId(2));
  EXPECT_FALSE(dfs.namenode->in_memory(f.blocks[0]));
}

TEST_F(MasterFixture, SecondJobRequestsAlreadyBufferedBlock) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  const auto& f = dfs.namenode->create_file("/input", mib(64));
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(10));
  ASSERT_TRUE(dfs.namenode->in_memory(f.blocks[0]));
  master->migrate_files(JobId(2), {"/input"}, EvictionMode::Explicit);
  EXPECT_EQ(master->pending_count(), 0u);
  master->evict_job(JobId(1));
  EXPECT_TRUE(dfs.namenode->in_memory(f.blocks[0]));  // job 2 holds it
  master->evict_job(JobId(2));
  EXPECT_FALSE(dfs.namenode->in_memory(f.blocks[0]));
}

TEST_F(MasterFixture, SlaveCrashDropsSoftState) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  const auto& f = dfs.namenode->create_file("/input", mib(64) * 4);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(30));
  ASSERT_EQ(master->migrations_completed(), 4);
  // Crash the process on a node that buffered at least one block.
  NodeId victim = NodeId::invalid();
  for (const auto& [id, n] : completed_per_node(*master)) {
    if (n > 0) {
      victim = id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  dfs.namenode->datanode(victim)->crash_process();
  for (BlockId b : f.blocks) {
    for (NodeId n : dfs.namenode->memory_locations(b)) {
      EXPECT_NE(n, victim);
    }
  }
  EXPECT_EQ(dfs.cluster->node(victim).memory().pinned(), 0);
}

TEST_F(MasterFixture, SlaveCrashRequeuesInFlightMigrations) {
  // Regression: migrations cancelled by a process crash used to vanish —
  // the cancel was recorded but the blocks never went back to pending_.
  // They must be re-queued and re-targeted at surviving replicas.
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  trace(*master);
  const auto& f = dfs.namenode->create_file("/input", mib(64) * 8);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  // Binding happens on the t=1s pulse; at 1.5s reads are mid-flight.
  dfs.sim.run_until(milliseconds(1500));
  NodeId victim = NodeId::invalid();
  for (NodeId id : dfs.cluster->node_ids()) {
    if (master->slave(id).in_flight_count() > 0) {
      victim = id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  dfs.namenode->datanode(victim)->crash_process();
  EXPECT_GT(master->migrations_requeued(), 0);
  bool saw_crash_cancel = false;
  for (const obs::TraceEvent& c : aborts()) {
    if (c.str("reason") == to_string(CancelReason::SlaveCrash) &&
        c.i64("node") == victim.value()) {
      saw_crash_cancel = true;
    }
  }
  EXPECT_TRUE(saw_crash_cancel);
  dfs.sim.run_until(seconds(40));
  EXPECT_EQ(master->pending_count(), 0u);
  EXPECT_EQ(master->bound_count(), 0u);
  for (BlockId b : f.blocks) EXPECT_TRUE(dfs.namenode->in_memory(b)) << b;
}

TEST_F(MasterFixture, RestartedProcessConvergesMidMigration) {
  // Crash a slave mid-migration, restart it shortly after: the cluster
  // must converge — every block migrated, the restarted node a valid
  // target again, and no stale registry entries for the crashed process.
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  const auto& f = dfs.namenode->create_file("/input", mib(64) * 8);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(milliseconds(1500));
  NodeId victim = NodeId::invalid();
  for (NodeId id : dfs.cluster->node_ids()) {
    if (master->slave(id).in_flight_count() > 0) {
      victim = id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  dfs.namenode->datanode(victim)->crash_process();
  EXPECT_EQ(dfs.cluster->node(victim).memory().pinned(), 0);
  dfs.sim.schedule_at(seconds(3), [&]() { dfs.namenode->datanode(victim)->restart_process(); });
  dfs.sim.run_until(seconds(40));
  EXPECT_EQ(master->pending_count(), 0u);
  EXPECT_EQ(master->bound_count(), 0u);
  for (BlockId b : f.blocks) EXPECT_TRUE(dfs.namenode->in_memory(b)) << b;
  // Registry only points at live processes.
  for (BlockId b : f.blocks) {
    for (NodeId n : dfs.namenode->memory_locations(b)) {
      EXPECT_TRUE(dfs.namenode->datanode(n)->process_alive()) << n;
    }
  }
}

TEST_F(MasterFixture, MasterFailoverRebuildsFromSlaveReports) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  const auto& f = dfs.namenode->create_file("/input", mib(64) * 4);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(30));
  ASSERT_EQ(dfs.namenode->memory_replica_count(), 4u);
  master->master_failover();
  EXPECT_EQ(dfs.namenode->memory_replica_count(), 0u);  // state lost
  // One heartbeat later the registry is consistent again (§III-C1).
  dfs.sim.run_until(dfs.sim.now() + seconds(2));
  EXPECT_EQ(dfs.namenode->memory_replica_count(), 4u);
  for (BlockId b : f.blocks) EXPECT_TRUE(dfs.namenode->in_memory(b));
}

TEST_F(MasterFixture, NaiveBalancerBindsFifoToAnyFreeSlave) {
  auto master = make_naive_balancer(*dfs.cluster, *dfs.namenode, config());
  // Node 0 crippled: naive balancing still hands it work.
  for (int i = 0; i < 6; ++i) dfs.cluster->node(NodeId(0)).disk().start_interference();
  dfs.namenode->create_file("/input", mib(64) * 30);
  master->migrate_files(JobId(1), {"/input"}, EvictionMode::Explicit);
  dfs.sim.run_until(minutes(10));
  EXPECT_GT(master->slave(NodeId(0)).migrations_completed(), 0);
}

TEST_F(MasterFixture, SmallestJobFirstPrioritizesSmallJobs) {
  // Extension of the paper's FIFO policy (§III names alternative policies
  // as future work): with SJF ordering, a later-arriving small job's
  // single block binds before the earlier large job's backlog.
  auto cfg = config();
  cfg.ordering = MasterConfig::Ordering::SmallestJobFirst;
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, cfg);
  dfs.namenode->create_file("/big", mib(64) * 40);
  const auto& small = dfs.namenode->create_file("/small", mib(64));
  master->migrate_files(JobId(1), {"/big"}, EvictionMode::Explicit);
  master->migrate_files(JobId(2), {"/small"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(4));
  // The small job's block is already in memory while most of the large
  // job's backlog still waits.
  EXPECT_TRUE(dfs.namenode->in_memory(small.blocks[0]));
  EXPECT_GT(master->pending_count(), 20u);
}

TEST_F(MasterFixture, FifoOrderingServesLargeJobFirst) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  dfs.namenode->create_file("/big", mib(64) * 40);
  const auto& small = dfs.namenode->create_file("/small", mib(64));
  master->migrate_files(JobId(1), {"/big"}, EvictionMode::Explicit);
  master->migrate_files(JobId(2), {"/small"}, EvictionMode::Explicit);
  dfs.sim.run_until(seconds(4));
  // FIFO: the small job's block sits behind ~40 blocks of the large job.
  EXPECT_FALSE(dfs.namenode->in_memory(small.blocks[0]));
}

// The sim detects failures through the dfs heartbeats; the rt detector's
// knob would silently mean nothing here, so the master refuses it.
TEST_F(MasterFixture, RejectsRtFailureDetection) {
  MasterConfig c = config();
  c.failure_detection.enabled = true;
  EXPECT_THROW(make_dyrs(*dfs.cluster, *dfs.namenode, c), CheckError);
}

TEST_F(MasterFixture, MasterQueueDepthReachesEverySlave) {
  MasterConfig c = config();
  c.queue_depth.extra_depth = 2;
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, c);
  // §III-B depth: one 64 MiB read at 64 MiB/s per 1 s heartbeat, plus 2.
  for (NodeId id : dfs.cluster->node_ids()) {
    EXPECT_EQ(master->slave(id).queue_capacity(), 3) << "node " << id;
  }
}

TEST_F(MasterFixture, UnknownSlaveLookupThrows) {
  auto master = make_dyrs(*dfs.cluster, *dfs.namenode, config());
  EXPECT_THROW(master->slave(NodeId(99)), CheckError);
}

}  // namespace
}  // namespace dyrs::core
