#include "dyrs/strategies.h"

#include <gtest/gtest.h>

#include "exec/testbed.h"
#include "testing/fixture.h"

namespace dyrs::core {
namespace {

using dyrs::testing::MiniDfs;

TEST(Strategies, DyrsConfiguration) {
  MiniDfs t;
  auto master = make_dyrs(*t.cluster, *t.namenode);
  EXPECT_EQ(master->config().binding, MasterConfig::Binding::LateTargeted);
  EXPECT_TRUE(master->config().cancel_missed_reads);
  EXPECT_EQ(master->config().slave.max_concurrent_migrations, 1);  // serialized
  EXPECT_TRUE(master->config().slave.overdue_correction);
}

TEST(Strategies, IgnemConfiguration) {
  MiniDfs t;
  auto master = make_ignem(*t.cluster, *t.namenode);
  EXPECT_EQ(master->config().binding, MasterConfig::Binding::EagerRandom);
  EXPECT_FALSE(master->config().cancel_missed_reads);
  EXPECT_GT(master->config().slave.max_concurrent_migrations, 1);  // concurrent
  EXPECT_FALSE(master->config().slave.overdue_correction);
}

TEST(Strategies, NaiveConfiguration) {
  MiniDfs t;
  auto master = make_naive_balancer(*t.cluster, *t.namenode);
  EXPECT_EQ(master->config().binding, MasterConfig::Binding::LateAnyReplica);
}

TEST(Strategies, FactoryOverridesPreserveOtherKnobs) {
  MiniDfs t;
  MasterConfig config;
  config.retarget_interval = milliseconds(100);
  config.slave.heartbeat_interval = milliseconds(500);
  auto master = make_dyrs(*t.cluster, *t.namenode, config);
  EXPECT_EQ(master->config().retarget_interval, milliseconds(100));
  EXPECT_EQ(master->config().slave.heartbeat_interval, milliseconds(500));
}

// Plain HDFS is the absence of a service: the testbed wires none, and a
// job that asks for migration runs with every read served from disk; the
// engine, the DFS client and remove_file all skip the null service.
TEST(Strategies, NoMigrationIsInert) {
  exec::TestbedConfig config;
  config.num_nodes = 3;
  config.block_size = mib(64);
  config.scheme = exec::Scheme::Hdfs;
  exec::Testbed tb(config);
  ASSERT_EQ(tb.service(), nullptr);
  tb.load_file("/in", mib(64) * 6);
  exec::JobSpec job;
  job.name = "scan";
  job.input_files = {"/in"};
  job.request_migration = true;
  job.platform_overhead = seconds(30);  // lead time a service could use
  tb.submit(job);
  tb.run();
  ASSERT_EQ(tb.metrics().jobs().size(), 1u);
  for (const exec::TaskRecord& t : tb.metrics().tasks()) {
    if (t.phase != exec::TaskPhase::Map) continue;
    EXPECT_TRUE(t.medium == dfs::ReadMedium::LocalDisk || t.medium == dfs::ReadMedium::RemoteDisk);
  }
  tb.remove_file("/in");
  EXPECT_FALSE(tb.namenode().ns().exists("/in"));
}

TEST(Strategies, IgnemConcurrencyCapHonored) {
  MiniDfs t({.num_nodes = 3,
             .disk_bw = mib_per_sec(64),
             .seek_alpha = 0.0,
             .replication = 3,
             .block_size = mib(64)});
  auto master = make_ignem(*t.cluster, *t.namenode);
  t.namenode->create_file("/in", mib(64) * 30);
  master->migrate_files(JobId(1), {"/in"}, EvictionMode::Explicit);
  const int cap = master->config().slave.max_concurrent_migrations;
  for (NodeId id : t.cluster->node_ids()) {
    EXPECT_LE(master->slave(id).in_flight_count(), cap) << "node " << id;
  }
  t.sim.run_until(minutes(5));
  EXPECT_EQ(master->migrations_completed(), 30);
}

}  // namespace
}  // namespace dyrs::core
