#include "dyrs/strategies.h"

#include <gtest/gtest.h>

#include "testing/fixture.h"

namespace dyrs::core {
namespace {

using dyrs::testing::MiniDfs;

TEST(Strategies, DyrsConfiguration) {
  MiniDfs t;
  auto master = make_dyrs(*t.cluster, *t.namenode);
  EXPECT_EQ(master->name(), "DYRS");
  EXPECT_EQ(master->config().binding, MasterConfig::Binding::LateTargeted);
  EXPECT_TRUE(master->config().cancel_missed_reads);
  EXPECT_TRUE(master->config().slave.serialize_migrations);
  EXPECT_TRUE(master->config().slave.overdue_correction);
}

TEST(Strategies, IgnemConfiguration) {
  MiniDfs t;
  auto master = make_ignem(*t.cluster, *t.namenode);
  EXPECT_EQ(master->name(), "Ignem");
  EXPECT_EQ(master->config().binding, MasterConfig::Binding::EagerRandom);
  EXPECT_FALSE(master->config().cancel_missed_reads);
  EXPECT_FALSE(master->config().slave.serialize_migrations);
  EXPECT_GT(master->config().slave.max_concurrent_migrations, 0);
  EXPECT_FALSE(master->config().slave.overdue_correction);
}

TEST(Strategies, NaiveConfiguration) {
  MiniDfs t;
  auto master = make_naive_balancer(*t.cluster, *t.namenode);
  EXPECT_EQ(master->name(), "NaiveBalancer");
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

TEST(Strategies, NoMigrationIsInert) {
  auto none = make_no_migration();
  EXPECT_EQ(none->name(), "HDFS");
  // All entry points are harmless no-ops.
  none->migrate_blocks(JobId(1), {BlockId(0)}, EvictionMode::Implicit);
  none->evict_job(JobId(1));
  none->on_job_finished(JobId(1));
  none->on_read_started(BlockId(0), JobId(1));
  none->on_blocks_deleted({BlockId(0)});
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
