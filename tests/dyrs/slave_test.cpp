#include "dyrs/slave.h"

#include <gtest/gtest.h>

#include "testing/fixture.h"

namespace dyrs::core {
namespace {

using dyrs::testing::MiniDfs;

std::map<JobId, EvictionMode> one_job(int id = 1,
                                      EvictionMode mode = EvictionMode::Implicit) {
  return {{JobId(id), mode}};
}

struct SlaveFixture : ::testing::Test {
  SlaveFixture()
      : dfs({.num_nodes = 3,
             .disk_bw = mib_per_sec(64),
             .seek_alpha = 0.0,
             .replication = 3,
             .block_size = mib(64)}) {
    file = &dfs.namenode->create_file("/input", mib(64) * 12);
    MigrationSlave::Callbacks cb;
    cb.on_complete = [this](const MigrationRecord& r) { completed.push_back(r); };
    cb.on_evicted = [this](NodeId, const std::vector<BlockId>& blocks) {
      for (BlockId b : blocks) evicted.push_back(b);
    };
    SlaveConfig config;
    config.heartbeat_interval = seconds(1);
    config.reference_block = mib(64);
    slave = std::make_unique<MigrationSlave>(dfs.sim, *dfs.datanodes[0], config,
                                             ControlPlaneConfig{}, cb);
    heartbeat = dfs.sim.every(seconds(1), [this]() { slave->heartbeat(); });
  }

  ~SlaveFixture() override { heartbeat.cancel(); }

  BoundMigration bound(BlockId block, int job = 1,
                       EvictionMode mode = EvictionMode::Implicit) {
    BoundMigration m;
    m.block = block;
    m.size = dfs.namenode->ns().block(block).size;
    m.jobs = {{JobId(job), mode}};
    m.bound_at = dfs.sim.now();
    return m;
  }

  MiniDfs dfs;
  const dfs::FileMeta* file = nullptr;
  std::unique_ptr<MigrationSlave> slave;
  std::vector<MigrationRecord> completed;
  std::vector<BlockId> evicted;
  sim::EventHandle heartbeat;
};

TEST_F(SlaveFixture, MigratesOneBlockAtDiskRate) {
  slave->enqueue(bound(file->blocks[0]));
  dfs.sim.run_until(seconds(5));
  ASSERT_EQ(completed.size(), 1u);
  // 64MiB at 64MiB/s = 1s.
  EXPECT_NEAR(to_seconds(completed[0].finished_at - completed[0].started_at), 1.0, 0.01);
  EXPECT_TRUE(slave->buffers().contains(file->blocks[0]));
  EXPECT_EQ(slave->migrations_completed(), 1);
}

TEST_F(SlaveFixture, SerializesMigrations) {
  slave->enqueue(bound(file->blocks[0]));
  slave->enqueue(bound(file->blocks[1]));
  slave->enqueue(bound(file->blocks[2]));
  EXPECT_EQ(slave->in_flight_count(), 1);
  EXPECT_EQ(slave->queued_count(), 2);
  dfs.sim.run_until(seconds(10));
  ASSERT_EQ(completed.size(), 3u);
  // Back-to-back: completions at 1s, 2s, 3s.
  EXPECT_NEAR(to_seconds(completed[0].finished_at), 1.0, 0.01);
  EXPECT_NEAR(to_seconds(completed[1].finished_at), 2.0, 0.01);
  EXPECT_NEAR(to_seconds(completed[2].finished_at), 3.0, 0.01);
}

TEST_F(SlaveFixture, ConcurrentModeRunsAllAtOnce) {
  SlaveConfig config;
  config.serialize_migrations = false;
  config.reference_block = mib(64);
  MigrationSlave ignem(dfs.sim, *dfs.datanodes[1], config, ControlPlaneConfig{}, {});
  // Blocks are replicated on all 3 nodes, so datanode 1 hosts them too.
  for (int i = 0; i < 3; ++i) {
    BoundMigration m = bound(file->blocks[static_cast<std::size_t>(i)]);
    ignem.enqueue(std::move(m));
  }
  EXPECT_EQ(ignem.in_flight_count(), 3);
  EXPECT_EQ(ignem.queued_count(), 0);
}

TEST_F(SlaveFixture, QueueCapacityFromHeartbeatAndBlockTime) {
  // 64MiB block at 64MiB/s = 1s; heartbeat 1s -> depth ceil(1/1)=1.
  EXPECT_EQ(slave->queue_capacity(), 1);
  // A 4x faster disk fits 4 block-reads per heartbeat.
  SlaveConfig config;
  config.reference_block = mib(64);
  MiniDfs fast({.num_nodes = 1,
                .disk_bw = mib_per_sec(256),
                .seek_alpha = 0.0,
                .replication = 1,
                .block_size = mib(64)});
  MigrationSlave s(fast.sim, *fast.datanodes[0], config, ControlPlaneConfig{}, {});
  EXPECT_EQ(s.queue_capacity(), 4);
}

TEST_F(SlaveFixture, FreeSlotsShrinkWithQueue) {
  SlaveConfig config;
  config.reference_block = mib(64);
  ControlPlaneConfig policy;
  policy.queue_depth.extra_depth = 2;  // capacity 3
  MigrationSlave s(dfs.sim, *dfs.datanodes[1], config, policy, {});
  EXPECT_EQ(s.free_slots(), 3);
  s.enqueue(bound(file->blocks[0]));  // starts immediately -> in flight
  EXPECT_EQ(s.free_slots(), 3);
  s.enqueue(bound(file->blocks[1]));
  s.enqueue(bound(file->blocks[2]));
  EXPECT_EQ(s.free_slots(), 1);
}

TEST_F(SlaveFixture, EstimatorLearnsFromMigrations) {
  for (int i = 0; i < 4; ++i) slave->enqueue(bound(file->blocks[static_cast<std::size_t>(i)]));
  dfs.sim.run_until(seconds(10));
  EXPECT_NEAR(slave->estimator().seconds_per_block(), 1.0, 0.05);
}

TEST_F(SlaveFixture, OverdueCorrectionReactsBeforeCompletion) {
  // Learn the fast estimate, then hit the disk with interference and watch
  // the estimate climb while the migration is still in flight.
  slave->enqueue(bound(file->blocks[0]));
  dfs.sim.run_until(seconds(3));
  ASSERT_EQ(completed.size(), 1u);
  const double before = slave->estimator().seconds_per_block();

  auto& disk = dfs.cluster->node(NodeId(0)).disk();
  for (int i = 0; i < 7; ++i) disk.start_interference();
  slave->enqueue(bound(file->blocks[1], 2));
  dfs.sim.run_until(seconds(8));  // several heartbeats, migration still slow
  EXPECT_EQ(completed.size(), 1u) << "migration should still be in flight";
  EXPECT_GT(slave->estimator().seconds_per_block(), before * 1.5);
}

TEST_F(SlaveFixture, CancelQueuedMigration) {
  slave->enqueue(bound(file->blocks[0]));
  slave->enqueue(bound(file->blocks[1]));
  EXPECT_TRUE(slave->cancel_block(file->blocks[1]));
  dfs.sim.run_until(seconds(5));
  EXPECT_EQ(completed.size(), 1u);
  EXPECT_FALSE(slave->buffers().contains(file->blocks[1]));
}

TEST_F(SlaveFixture, CancelActiveMigrationFreesMemoryAndStartsNext) {
  slave->enqueue(bound(file->blocks[0]));
  slave->enqueue(bound(file->blocks[1]));
  dfs.sim.run_until(milliseconds(500));
  EXPECT_TRUE(slave->cancel_block(file->blocks[0]));
  EXPECT_EQ(slave->in_flight_count(), 1);  // next started
  dfs.sim.run_until(seconds(5));
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].block, file->blocks[1]);
  EXPECT_FALSE(slave->buffers().contains(file->blocks[0]));
  // Cancelled at 0.5s, block 1 takes 1s -> done at 1.5s.
  EXPECT_NEAR(to_seconds(completed[0].finished_at), 1.5, 0.01);
}

TEST_F(SlaveFixture, CancelUnknownBlockReturnsFalse) {
  EXPECT_FALSE(slave->cancel_block(BlockId(999)));
}

TEST_F(SlaveFixture, CancelForJobKeepsSharedMigration) {
  BoundMigration m = bound(file->blocks[0], 1);
  m.jobs[JobId(2)] = EvictionMode::Implicit;
  slave->enqueue(std::move(m));
  EXPECT_FALSE(slave->cancel_for_job(file->blocks[0], JobId(1)));
  dfs.sim.run_until(seconds(3));
  EXPECT_EQ(completed.size(), 1u);  // job 2 still wanted it
}

TEST_F(SlaveFixture, CancelForJobLastReferenceCancels) {
  slave->enqueue(bound(file->blocks[0], 1));
  EXPECT_TRUE(slave->cancel_for_job(file->blocks[0], JobId(1)));
  dfs.sim.run_until(seconds(3));
  EXPECT_TRUE(completed.empty());
}

TEST_F(SlaveFixture, MemoryLimitStallsQueueUntilEviction) {
  SlaveConfig config;
  config.reference_block = mib(64);
  config.memory_limit = mib(64);  // fits exactly one block
  std::vector<MigrationRecord> done;
  MigrationSlave::Callbacks cb;
  cb.on_complete = [&](const MigrationRecord& r) { done.push_back(r); };
  MigrationSlave s(dfs.sim, *dfs.datanodes[1], config, ControlPlaneConfig{}, cb);
  s.enqueue(bound(file->blocks[0], 1, EvictionMode::Explicit));
  s.enqueue(bound(file->blocks[1], 2, EvictionMode::Explicit));
  dfs.sim.run_until(seconds(5));
  EXPECT_EQ(done.size(), 1u);
  EXPECT_TRUE(s.stalled());
  // Evicting job 1's block frees space; the queued migration proceeds.
  s.release_job(JobId(1));
  dfs.sim.run_until(seconds(10));
  EXPECT_EQ(done.size(), 2u);
  EXPECT_FALSE(s.stalled());
}

TEST_F(SlaveFixture, EnqueueForBufferedBlockJustAddsRefs) {
  slave->enqueue(bound(file->blocks[0], 1, EvictionMode::Explicit));
  dfs.sim.run_until(seconds(3));
  ASSERT_EQ(completed.size(), 1u);
  slave->enqueue(bound(file->blocks[0], 2, EvictionMode::Explicit));
  dfs.sim.run_until(seconds(6));
  EXPECT_EQ(completed.size(), 1u);  // no second migration
  slave->release_job(JobId(1));
  EXPECT_TRUE(slave->buffers().contains(file->blocks[0]));
  slave->release_job(JobId(2));
  EXPECT_FALSE(slave->buffers().contains(file->blocks[0]));
}

TEST_F(SlaveFixture, ImplicitEvictionViaOnBlockRead) {
  slave->enqueue(bound(file->blocks[0], 1, EvictionMode::Implicit));
  dfs.sim.run_until(seconds(3));
  slave->on_block_read(file->blocks[0], JobId(1));
  EXPECT_FALSE(slave->buffers().contains(file->blocks[0]));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], file->blocks[0]);
}

TEST_F(SlaveFixture, ScavengeOnHeartbeatUnderPressure) {
  SlaveConfig config;
  config.reference_block = mib(64);
  config.memory_limit = mib(128);
  config.scavenge_threshold = 0.5;
  std::vector<BlockId> gone;
  MigrationSlave::Callbacks cb;
  cb.on_evicted = [&](NodeId, const std::vector<BlockId>& blocks) {
    gone.insert(gone.end(), blocks.begin(), blocks.end());
  };
  MigrationSlave s(dfs.sim, *dfs.datanodes[1], config, ControlPlaneConfig{}, cb);
  s.job_active_query = [](JobId) { return false; };  // every job is dead
  s.enqueue(bound(file->blocks[0], 7, EvictionMode::Explicit));
  dfs.sim.run_until(seconds(2));
  ASSERT_TRUE(s.buffers().contains(file->blocks[0]) || !gone.empty());
  s.heartbeat();  // over threshold (64/128 = 0.5) -> scavenges dead job 7
  EXPECT_FALSE(s.buffers().contains(file->blocks[0]));
  ASSERT_EQ(gone.size(), 1u);
}

TEST_F(SlaveFixture, CrashDropsEverything) {
  slave->enqueue(bound(file->blocks[0]));
  slave->enqueue(bound(file->blocks[1]));
  dfs.sim.run_until(milliseconds(500));
  auto report = slave->crash();
  EXPECT_TRUE(report.buffered.empty());  // nothing had completed yet
  EXPECT_EQ(report.lost.size(), 2u);     // both migrations died with the process
  EXPECT_EQ(slave->in_flight_count(), 0);
  EXPECT_EQ(slave->queued_count(), 0);
  dfs.sim.run_until(seconds(5));
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(dfs.cluster->node(NodeId(0)).memory().pinned(), 0);
}

TEST_F(SlaveFixture, CrashReportsBufferedBlocks) {
  slave->enqueue(bound(file->blocks[0]));
  dfs.sim.run_until(seconds(3));
  ASSERT_EQ(completed.size(), 1u);
  auto report = slave->crash();
  ASSERT_EQ(report.buffered.size(), 1u);
  EXPECT_EQ(report.buffered[0], file->blocks[0]);
  EXPECT_TRUE(report.lost.empty());  // the migration had already completed
  EXPECT_EQ(dfs.cluster->node(NodeId(0)).memory().pinned(), 0);
}

TEST_F(SlaveFixture, EnqueueNonLocalBlockThrows) {
  MiniDfs other({.num_nodes = 4, .replication = 1});
  const auto& f = other.namenode->create_file("/x", mib(64));
  // Find a datanode that does NOT host the block.
  const auto locs = other.namenode->block_locations(f.blocks[0]);
  dfs::DataNode* outsider = nullptr;
  for (auto& dn : other.datanodes) {
    if (dn->id() != locs[0]) outsider = dn.get();
  }
  ASSERT_NE(outsider, nullptr);
  MigrationSlave s(other.sim, *outsider, {}, ControlPlaneConfig{}, {});
  BoundMigration m;
  m.block = f.blocks[0];
  m.size = mib(64);
  m.jobs = one_job();
  EXPECT_THROW(s.enqueue(std::move(m)), CheckError);
}

}  // namespace
}  // namespace dyrs::core
