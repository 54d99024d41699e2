#include "exec/testbed.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workloads/sort.h"

namespace dyrs::exec {
namespace {

TestbedConfig tiny(Scheme scheme) {
  TestbedConfig c;
  c.num_nodes = 3;
  c.block_size = mib(64);
  c.scheme = scheme;
  c.master.slave.reference_block = mib(64);
  return c;
}

TEST(Testbed, SchemeNames) {
  EXPECT_STREQ(to_string(Scheme::Hdfs), "HDFS");
  EXPECT_STREQ(to_string(Scheme::InputsInRam), "HDFS-Inputs-in-RAM");
  EXPECT_STREQ(to_string(Scheme::Ignem), "Ignem");
  EXPECT_STREQ(to_string(Scheme::Dyrs), "DYRS");
  EXPECT_STREQ(to_string(Scheme::NaiveBalancer), "NaiveBalancer");
}

TEST(Testbed, ServiceWiringPerScheme) {
  {
    Testbed tb(tiny(Scheme::Hdfs));
    EXPECT_EQ(tb.master(), nullptr);
    EXPECT_EQ(tb.oracle(), nullptr);
    EXPECT_NE(tb.service(), nullptr);
    EXPECT_EQ(tb.service()->name(), "HDFS");
  }
  {
    Testbed tb(tiny(Scheme::Dyrs));
    ASSERT_NE(tb.master(), nullptr);
    EXPECT_EQ(tb.master()->name(), "DYRS");
  }
  {
    Testbed tb(tiny(Scheme::Ignem));
    ASSERT_NE(tb.master(), nullptr);
    EXPECT_EQ(tb.master()->name(), "Ignem");
  }
  {
    Testbed tb(tiny(Scheme::InputsInRam));
    EXPECT_EQ(tb.master(), nullptr);
    ASSERT_NE(tb.oracle(), nullptr);
    EXPECT_EQ(tb.oracle()->name(), "HDFS-Inputs-in-RAM");
  }
  {
    Testbed tb(tiny(Scheme::NaiveBalancer));
    ASSERT_NE(tb.master(), nullptr);
    EXPECT_EQ(tb.master()->name(), "NaiveBalancer");
  }
}

TEST(Testbed, LoadFileRegistersBlocksOnDatanodes) {
  Testbed tb(tiny(Scheme::Hdfs));
  const auto& f = tb.load_file("/x", mib(192));
  EXPECT_EQ(f.blocks.size(), 3u);
  for (BlockId b : f.blocks) {
    EXPECT_FALSE(tb.namenode().block_locations(b).empty());
  }
}

TEST(Testbed, DuplicateLoadThrows) {
  Testbed tb(tiny(Scheme::Hdfs));
  tb.load_file("/x", mib(64));
  EXPECT_THROW(tb.load_file("/x", mib(64)), CheckError);
}

TEST(Testbed, InterferenceSlowsTheTargetDisk) {
  Testbed tb(tiny(Scheme::Hdfs));
  auto& dd = tb.add_persistent_interference(NodeId(0), 2);
  EXPECT_TRUE(dd.active());
  EXPECT_EQ(tb.cluster().node(NodeId(0)).disk().active_interference(), 2);
  EXPECT_EQ(tb.cluster().node(NodeId(1)).disk().active_interference(), 0);
}

TEST(Testbed, AlternatingInterferenceInstalls) {
  Testbed tb(tiny(Scheme::Hdfs));
  auto& alt = tb.add_alternating_interference(NodeId(1), seconds(5), true);
  EXPECT_TRUE(alt.active());
  tb.simulator().run_until(seconds(5));
  EXPECT_FALSE(alt.active());
  alt.stop();
}

TEST(Testbed, RunReturnsAtMaxTimeWithUnfinishedWork) {
  Testbed tb(tiny(Scheme::Hdfs));
  tb.load_file("/x", gib(2));
  JobSpec job;
  job.name = "x";
  job.input_files = {"/x"};
  job.platform_overhead = minutes(30);  // won't even start
  tb.submit(job);
  const SimTime end = tb.run(/*max_time=*/seconds(10));
  EXPECT_LE(end, seconds(10) + seconds(1));
  EXPECT_TRUE(tb.metrics().jobs().empty());
}

// Fig 9 and examples/adaptive_sort read the master's per-node estimate
// from the sampler: at the default cadence, one `nodeN.dyrs.est_s_per_block`
// sample per heartbeat, equal to the slave estimator's value right after
// that heartbeat's pulse, overdue correction included.
TEST(Testbed, EstimateProbeSamplesEachPulse) {
  TestbedConfig c = tiny(Scheme::Dyrs);
  c.disk_bandwidth = mib_per_sec(64);
  c.seek_alpha = 0.0;
  ASSERT_EQ(c.sample_interval, c.master.slave.heartbeat_interval);
  Testbed tb(c);
  tb.add_alternating_interference(NodeId(0), seconds(3), /*initially_active=*/true);
  const obs::PeriodicSampler& sampler = tb.enable_sampling();
  tb.load_file("/in", mib(64) * 24);
  tb.master()->migrate_files(JobId(1), {"/in"}, core::EvictionMode::Explicit);

  constexpr int kTicks = 20;
  int overdue_raises = 0;
  for (int tick = 1; tick <= kTicks; ++tick) {
    const SimTime pulse = seconds(tick);
    std::vector<double> before;
    std::vector<long> completed_before;
    tb.simulator().run_until(pulse - 1);
    for (NodeId id : tb.cluster().node_ids()) {
      const core::MigrationSlave& slave = tb.master()->slave(id);
      before.push_back(slave.estimator().seconds_per_block());
      completed_before.push_back(slave.migrations_completed());
    }
    tb.simulator().run_until(pulse);
    for (NodeId id : tb.cluster().node_ids()) {
      const core::MigrationSlave& slave = tb.master()->slave(id);
      const TimeSeries& series =
          sampler.series("node" + std::to_string(id.value()) + ".dyrs.est_s_per_block");
      ASSERT_EQ(series.size(), static_cast<std::size_t>(tick)) << "node " << id;
      EXPECT_EQ(series.points().back().time, pulse);
      const double sampled = series.points().back().value;
      EXPECT_EQ(sampled, slave.estimator().seconds_per_block()) << "node " << id;
      // A pulse that moved the estimate with no completion in between is
      // the overdue correction, and the sample carries it.
      const auto i = static_cast<std::size_t>(id.value());
      if (slave.migrations_completed() == completed_before[i] && sampled > before[i]) {
        ++overdue_raises;
      }
    }
  }
  EXPECT_GT(overdue_raises, 0);
}

TEST(Testbed, RunCompletesSubmittedWork) {
  Testbed tb(tiny(Scheme::Dyrs));
  tb.load_file("/x", mib(256));
  wl::SortConfig sort;
  sort.input = mib(256);
  sort.reducers = 2;
  tb.submit(wl::sort_job("/x", sort));
  tb.run();
  EXPECT_TRUE(tb.engine().all_done());
  EXPECT_EQ(tb.metrics().jobs().size(), 1u);
}

}  // namespace
}  // namespace dyrs::exec
