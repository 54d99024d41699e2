// Transient-failure handling in the migration path: injected I/O errors are
// absorbed by slave-local retries with capped exponential backoff; a slave
// that exhausts its budget reports a permanent failure and the master
// re-targets the block at a surviving replica.
#include <gtest/gtest.h>

#include "dyrs/strategies.h"
#include "faults/fault_injector.h"
#include "obs/trace.h"
#include "testing/fixture.h"

namespace dyrs::faults {
namespace {

using dyrs::testing::MiniDfs;

struct RetryFixture : ::testing::Test {
  RetryFixture()
      : dfs({.num_nodes = 4,
             .disk_bw = mib_per_sec(64),
             .seek_alpha = 0.0,
             .replication = 3,
             .block_size = mib(64)}),
        injector(dfs.sim, *dfs.cluster, *dfs.namenode, /*seed=*/3) {}

  core::MasterConfig config() {
    core::MasterConfig c;
    c.slave.heartbeat_interval = seconds(1);
    c.slave.reference_block = mib(64);
    c.retry.backoff = milliseconds(250);
    c.retarget_interval = milliseconds(500);
    return c;
  }

  MiniDfs dfs;
  FaultInjector injector;
};

TEST_F(RetryFixture, TransientErrorsRetryWithBackoffAndComplete) {
  auto master = core::make_dyrs(*dfs.cluster, *dfs.namenode, config());
  master->set_job_active_query([](JobId) { return true; });
  const auto& f = dfs.namenode->create_file("/in", mib(64) * 8);
  // Every migration read on every node fails during [0.5s, 2.5s): reads
  // finishing in the window burn an attempt, back off, and retry.
  FaultPlan plan;
  for (int n = 0; n < 4; ++n) {
    plan.io_errors(NodeId(n), milliseconds(500), milliseconds(2500), 1.0);
  }
  injector.install(plan);
  master->migrate_files(JobId(1), {"/in"}, core::EvictionMode::Explicit);
  dfs.sim.run_until(seconds(40));
  EXPECT_GT(master->migration_retries(), 0);
  EXPECT_EQ(master->pending_count(), 0u);
  EXPECT_EQ(master->bound_count(), 0u);
  for (BlockId b : f.blocks) EXPECT_TRUE(dfs.namenode->in_memory(b)) << b;
}

TEST_F(RetryFixture, BackoffDelaysGrowExponentially) {
  auto master = core::make_dyrs(*dfs.cluster, *dfs.namenode, config());
  master->set_job_active_query([](JobId) { return true; });
  const auto& f = dfs.namenode->create_file("/one", mib(64));
  const auto replicas = dfs.namenode->raw_replicas(f.blocks[0]);
  // Persistent errors everywhere: with a 64MiB block at 64MiB/s each
  // attempt takes ~1s plus backoff 0.25s, 0.5s, 1s... between attempts.
  FaultPlan plan;
  for (int n = 0; n < 4; ++n) plan.io_errors(NodeId(n), 0, seconds(60), 1.0);
  injector.install(plan);
  master->migrate_files(JobId(1), {"/one"}, core::EvictionMode::Explicit);
  // Binding happens on the t=1s pulse; the first attempt fails at ~2s and
  // the slave is then backing off.
  dfs.sim.run_until(milliseconds(2100));
  int backing_off = 0;
  for (NodeId n : replicas) backing_off += master->slave(n).backoff_count();
  EXPECT_EQ(backing_off, 1);
  EXPECT_EQ(master->migration_retries(), 1);
}

TEST_F(RetryFixture, PermanentFailureRetargetsSurvivingReplica) {
  obs::Tracer tracer;
  obs::MemorySink sink;
  tracer.set_sink(&sink);
  auto master = core::make_dyrs(*dfs.cluster, *dfs.namenode, config());
  master->set_observability(obs::ObsContext(nullptr, &tracer));
  master->set_job_active_query([](JobId) { return true; });
  const auto& f = dfs.namenode->create_file("/one", mib(64));
  const BlockId block = f.blocks[0];
  const auto replicas = dfs.namenode->raw_replicas(block);
  ASSERT_EQ(replicas.size(), 3u);
  // Two of the three replica holders return I/O errors for the whole run;
  // only the last replica can serve the migration.
  const NodeId survivor = replicas[2];
  FaultPlan plan;
  plan.io_errors(replicas[0], 0, seconds(300), 1.0);
  plan.io_errors(replicas[1], 0, seconds(300), 1.0);
  injector.install(plan);
  master->migrate_files(JobId(1), {"/one"}, core::EvictionMode::Explicit);
  dfs.sim.run_until(seconds(120));
  EXPECT_EQ(master->migrations_completed(), 1);
  const auto locations = dfs.namenode->memory_locations(block);
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0], survivor);
  // The block was never dropped: every exhausted budget re-queued it.
  EXPECT_EQ(master->migrations_requeued(), master->migration_permanent_failures());
  EXPECT_GT(master->migration_retries(), 0);
  // IoError cancels were recorded for the failing holders.
  bool saw_io_cancel = false;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type == "mig_abort" && e.str("reason") == core::to_string(core::CancelReason::IoError)) {
      saw_io_cancel = true;
    }
  }
  EXPECT_EQ(saw_io_cancel, master->migration_permanent_failures() > 0);
}

// The master's retry policy is every slave's: with a budget of one attempt
// each replica holder reports its first fault as a permanent failure.
TEST_F(RetryFixture, MasterRetryPolicyGovernsEverySlave) {
  core::MasterConfig c = config();
  c.retry.max_attempts = 1;
  auto master = core::make_dyrs(*dfs.cluster, *dfs.namenode, c);
  master->set_job_active_query([](JobId) { return true; });
  const auto& f = dfs.namenode->create_file("/one", mib(64));
  const auto replicas = dfs.namenode->raw_replicas(f.blocks[0]);
  ASSERT_EQ(replicas.size(), 3u);
  FaultPlan plan;
  for (int n = 0; n < 4; ++n) plan.io_errors(NodeId(n), 0, seconds(600), 1.0);
  injector.install(plan);
  master->migrate_files(JobId(1), {"/one"}, core::EvictionMode::Explicit);
  dfs.sim.run_until(seconds(30));
  for (NodeId n : replicas) {
    EXPECT_EQ(master->slave(n).permanent_failures(), 1) << "node " << n;
    EXPECT_EQ(master->slave(n).retries(), 0) << "node " << n;
  }
}

TEST_F(RetryFixture, ExhaustedEverywhereStaysPendingNotDropped) {
  // All replicas permanently failing: the block must remain visible as
  // pending (or in backoff) rather than silently vanishing.
  auto master = core::make_dyrs(*dfs.cluster, *dfs.namenode, config());
  master->set_job_active_query([](JobId) { return true; });
  const auto& f = dfs.namenode->create_file("/one", mib(64));
  FaultPlan plan;
  for (int n = 0; n < 4; ++n) plan.io_errors(NodeId(n), 0, seconds(600), 1.0);
  injector.install(plan);
  master->migrate_files(JobId(1), {"/one"}, core::EvictionMode::Explicit);
  dfs.sim.run_until(seconds(120));
  EXPECT_EQ(master->migrations_completed(), 0);
  EXPECT_FALSE(dfs.namenode->in_memory(f.blocks[0]));
  // Still tracked somewhere: pending at the master or bound to a slave.
  const bool tracked = master->pending_count() + master->bound_count() > 0;
  EXPECT_TRUE(tracked);
  EXPECT_EQ(master->migration_permanent_failures(), 3);  // one per replica holder
}

}  // namespace
}  // namespace dyrs::faults
