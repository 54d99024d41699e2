// Master work follows the busy nodes: on the paper's SWIM workload scaled
// to 28 nodes (every seventh slowed by dd-style readers), the sim master's
// per-event work is bounded by what the nodes with work need, read from
// the registry's work counters:
//   * a pull visits only its node's targeted entries, so every entry a
//     bind walk visits is bound or skipped for its avoid list;
//   * a pulse visits only the slaves with something to do.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exec/testbed.h"
#include "workloads/swim.h"

namespace dyrs {
namespace {

constexpr int kScale = 4;

std::int64_t counter(exec::Testbed& tb, const std::string& name) {
  const obs::Counter* c = tb.registry().find_counter(name);
  return c == nullptr ? -1 : c->value();
}

TEST(MasterWork, BindWalksAndPulsesFollowTheBusyNodes) {
  exec::TestbedConfig c;
  c.num_nodes = 7 * kScale;
  c.disk_bandwidth = mib_per_sec(160);
  c.seek_alpha = 0.15;
  c.block_size = mib(256);
  c.replication = 3;
  c.map_slots_per_node = 12;
  c.reduce_slots_per_node = 6;
  c.scheme = exec::Scheme::Dyrs;
  c.master.slave.heartbeat_interval = seconds(1);
  c.master.slave.reference_block = c.block_size;
  exec::Testbed tb(c);
  for (int n = 0; n < c.num_nodes; n += 7) tb.add_persistent_interference(NodeId(n), 2);

  wl::SwimConfig swim;
  swim.num_jobs = 200 * kScale;
  swim.total_input = gib(170) * kScale;
  swim.mean_interarrival_s = 40.0 / kScale;
  exec::JobSpec base;
  base.selectivity = 0.1;
  base.platform_overhead = seconds(5);
  base.task_overhead = milliseconds(200);
  const auto jobs = wl::SwimWorkload::generate(swim).install(tb, base);
  tb.run();
  ASSERT_EQ(tb.metrics().jobs().size(), jobs.size());

  const std::int64_t binds = counter(tb, "dyrs.migrations.bound");
  const std::int64_t scanned = counter(tb, "ctrl.bind.entries_scanned");
  const std::int64_t visits = counter(tb, "dyrs.pulse.slave_visits");
  const std::int64_t scored = counter(tb, "ctrl.retarget.entries_scored");
  const std::int64_t snapshots = counter(tb, "ctrl.retarget.snapshot_nodes");
  ASSERT_GT(binds, 1000);
  ASSERT_GT(scored, 0);
  ASSERT_GT(snapshots, 0);

  // No replica failed a block, so no avoid list holds a node and no walk
  // skips an entry for one: every handle a walk visited was bound.
  ASSERT_EQ(tb.master()->migration_permanent_failures(), 0);
  ASSERT_EQ(tb.master()->migrations_requeued(), 0);
  const std::int64_t avoid_skips = 0;
  EXPECT_LE(scanned, binds + avoid_skips);

  // One pulse per heartbeat since the master started at time 0.
  const std::int64_t pulses = tb.simulator().now() / c.master.slave.heartbeat_interval;
  ASSERT_GT(pulses, 100);
  EXPECT_LT(visits, pulses * c.num_nodes);
}

}  // namespace
}  // namespace dyrs
