// Ablation of the overdue-estimate correction (paper §IV-A): with the
// correction, the estimate reacts to a bandwidth drop while the migration
// is still in flight; without it (the paper's earlier prototype) the
// estimate only moves when the slow migration finally completes.
#include <gtest/gtest.h>

#include "dyrs/slave.h"
#include "testing/fixture.h"

namespace dyrs::core {
namespace {

using dyrs::testing::MiniDfs;

struct Rig {
  explicit Rig(bool overdue)
      : dfs({.num_nodes = 1,
             .disk_bw = mib_per_sec(64),
             .seek_alpha = 0.0,
             .replication = 1,
             .block_size = mib(64)}) {
    file = &dfs.namenode->create_file("/stream", mib(64) * 20);
    SlaveConfig config;
    config.heartbeat_interval = seconds(1);
    config.reference_block = mib(64);
    config.overdue_correction = overdue;
    slave = std::make_unique<MigrationSlave>(dfs.sim, *dfs.datanodes[0], config,
                                             ControlPlaneConfig{}, MigrationSlave::Callbacks{});
    heartbeat = dfs.sim.every(seconds(1), [this]() { slave->heartbeat(); });
  }
  ~Rig() { heartbeat.cancel(); }

  void enqueue(int index) {
    BoundMigration m;
    m.block = file->blocks[static_cast<std::size_t>(index)];
    m.size = mib(64);
    m.jobs[JobId(1)] = EvictionMode::Explicit;
    slave->enqueue(std::move(m));
  }

  MiniDfs dfs;
  const dfs::FileMeta* file;
  std::unique_ptr<MigrationSlave> slave;
  sim::EventHandle heartbeat;
};

// Shared scenario: learn the fast rate, then a heavy slowdown hits while a
// migration is in flight. Returns the estimate 6 heartbeats into the slow
// migration (well before it completes).
double estimate_mid_slowdown(bool overdue) {
  Rig s(overdue);
  s.enqueue(0);
  s.dfs.sim.run_until(seconds(3));  // 1s migration completed, estimate ~1s
  // 15 interference flows: the next 64MiB migration takes ~16s.
  auto& disk = s.dfs.cluster->node(NodeId(0)).disk();
  for (int i = 0; i < 15; ++i) disk.start_interference();
  s.enqueue(1);
  s.dfs.sim.run_until(seconds(3) + seconds(6));
  return s.slave->estimator().seconds_per_block();
}

TEST(OverdueAblation, CorrectionReactsMidMigration) {
  const double with = estimate_mid_slowdown(true);
  const double without = estimate_mid_slowdown(false);
  // Without the correction the estimate is still the fast ~1s; with it,
  // several overdue samples have already pushed it up.
  EXPECT_NEAR(without, 1.0, 0.1);
  EXPECT_GT(with, without * 2.0);
}

TEST(OverdueAblation, BothConvergeAfterCompletion) {
  for (bool overdue : {true, false}) {
    Rig s(overdue);
    s.enqueue(0);
    s.dfs.sim.run_until(seconds(3));
    auto& disk = s.dfs.cluster->node(NodeId(0)).disk();
    std::vector<cluster::Disk::FlowId> flows;
    for (int i = 0; i < 3; ++i) flows.push_back(disk.start_interference());
    s.enqueue(1);
    s.dfs.sim.run_until(seconds(30));  // slow migration completes
    // Both modes eventually reflect the ~4s slow-period reality, the
    // correction just gets there sooner.
    EXPECT_GT(s.slave->estimator().seconds_per_block(), 1.5) << "overdue=" << overdue;
    for (auto f : flows) disk.cancel(f);
  }
}

TEST(OverdueAblation, NoFalsePositivesAtSteadyState) {
  // Without any slowdown the correction never fires: estimates match.
  Rig with(true), without(false);
  for (int i = 0; i < 6; ++i) {
    with.enqueue(i);
    without.enqueue(i);
  }
  with.dfs.sim.run_until(seconds(10));
  without.dfs.sim.run_until(seconds(10));
  EXPECT_NEAR(with.slave->estimator().seconds_per_block(),
              without.slave->estimator().seconds_per_block(), 1e-9);
}

}  // namespace
}  // namespace dyrs::core
