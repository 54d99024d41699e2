#include "exec/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "exec/testbed.h"
#include "obs/metrics_registry.h"
#include "obs/obs_context.h"
#include "testing/fixture.h"

namespace dyrs::exec {
namespace {

TestbedConfig small_config(Scheme scheme = Scheme::Hdfs) {
  TestbedConfig c;
  c.num_nodes = 4;
  c.disk_bandwidth = mib_per_sec(64);
  c.seek_alpha = 0.0;
  c.block_size = mib(64);
  c.master.slave.heartbeat_interval = seconds(1);
  c.master.slave.reference_block = mib(64);
  c.scheme = scheme;
  return c;
}

JobSpec simple_job(const std::string& file, int reducers = 0) {
  JobSpec spec;
  spec.name = "job";
  spec.input_files = {file};
  spec.selectivity = 0.1;
  spec.num_reducers = reducers;
  spec.platform_overhead = seconds(2);
  spec.task_overhead = milliseconds(100);
  return spec;
}

TEST(Engine, MapOnlyJobRunsToCompletion) {
  Testbed tb(small_config());
  tb.load_file("/in", mib(256));  // 4 blocks
  tb.submit(simple_job("/in"));
  tb.run();
  ASSERT_EQ(tb.metrics().jobs().size(), 1u);
  const auto& job = tb.metrics().jobs()[0];
  EXPECT_EQ(job.num_maps, 4);
  EXPECT_EQ(job.num_reduces, 0);
  EXPECT_GT(job.finished, job.submitted);
  EXPECT_EQ(tb.metrics().tasks().size(), 4u);
}

TEST(Engine, PlatformOverheadCreatesLeadTime) {
  Testbed tb(small_config());
  tb.load_file("/in", mib(64));
  auto spec = simple_job("/in");
  spec.platform_overhead = seconds(5);
  tb.submit(spec);
  tb.run();
  const auto& job = tb.metrics().jobs()[0];
  EXPECT_NEAR(job.lead_time_s(), 5.0, 0.1);
}

TEST(Engine, FirstMapStartingAtTimeZeroKeepsItsLeadTime) {
  // Submitted at t = 0 with no overhead, the first wave starts at t = 0;
  // six maps on two one-slot nodes take three waves, and the later waves
  // must not overwrite the job's first task start.
  TestbedConfig c = small_config();
  c.num_nodes = 2;
  c.map_slots_per_node = 1;
  Testbed tb(c);
  tb.load_file("/in", mib(64) * 6);
  auto spec = simple_job("/in");
  spec.platform_overhead = 0;
  tb.submit(spec);
  tb.run();
  const auto& job = tb.metrics().jobs()[0];
  SimTime first_map = job.finished;
  for (const auto& t : tb.metrics().tasks()) first_map = std::min(first_map, t.started);
  EXPECT_EQ(first_map, 0);
  EXPECT_EQ(job.first_task_start, 0);
  EXPECT_EQ(job.lead_time_s(), 0.0);
  EXPECT_GT(job.map_phase_s(), 3.0);  // three waves of one-second reads
}

TEST(Engine, ExtraLeadTimeDelaysTasksNotMigration) {
  Testbed tb(small_config(Scheme::Dyrs));
  tb.load_file("/in", mib(256));
  auto spec = simple_job("/in");
  spec.platform_overhead = seconds(1);
  spec.extra_lead_time = seconds(10);
  tb.submit(spec);
  tb.run();
  const auto& job = tb.metrics().jobs()[0];
  EXPECT_NEAR(job.lead_time_s(), 11.0, 0.2);
  // With 11s of lead-time and 4 one-second blocks, everything migrated:
  // all map reads come from memory.
  EXPECT_NEAR(tb.metrics().memory_read_fraction(), 1.0, 1e-9);
}

TEST(Engine, ReduceStageFollowsMaps) {
  Testbed tb(small_config());
  tb.load_file("/in", mib(128));
  auto spec = simple_job("/in", /*reducers=*/2);
  tb.submit(spec);
  tb.run();
  const auto& job = tb.metrics().jobs()[0];
  EXPECT_GT(job.finished, job.maps_done);
  int maps = 0, reduces = 0;
  for (const auto& t : tb.metrics().tasks()) {
    if (t.phase == TaskPhase::Map) ++maps;
    if (t.phase == TaskPhase::Reduce) {
      ++reduces;
      EXPECT_GE(t.started, job.maps_done);
    }
  }
  EXPECT_EQ(maps, 2);
  EXPECT_EQ(reduces, 2);
}

TEST(Engine, MapsPreferLocalReplicas) {
  Testbed tb(small_config());
  tb.load_file("/in", mib(64) * 8);
  tb.submit(simple_job("/in"));
  tb.run();
  for (const auto& t : tb.metrics().tasks()) {
    // With 3-way replication on 4 nodes and free slots everywhere, every
    // map should find a local replica.
    EXPECT_EQ(t.medium, dfs::ReadMedium::LocalDisk);
    EXPECT_EQ(t.read_source, t.node);
  }
}

TEST(Engine, SlotsLimitParallelism) {
  TestbedConfig c = small_config();
  c.map_slots_per_node = 1;  // 4 slots total
  Testbed tb(c);
  tb.load_file("/in", mib(64) * 8);
  tb.submit(simple_job("/in"));
  tb.run();
  // 8 one-second reads over 4 slots: two waves; makespan >= 2 read times.
  const auto& job = tb.metrics().jobs()[0];
  EXPECT_GT(job.map_phase_s(), 2.0);
}

TEST(Engine, ConcurrentJobsShareCluster) {
  Testbed tb(small_config());
  tb.load_file("/a", mib(256));
  tb.load_file("/b", mib(256));
  tb.submit(simple_job("/a"));
  tb.submit(simple_job("/b"));
  tb.run();
  EXPECT_EQ(tb.metrics().jobs().size(), 2u);
  EXPECT_TRUE(tb.engine().all_done());
}

TEST(Engine, SubmitAtDelaysSubmission) {
  Testbed tb(small_config());
  tb.load_file("/in", mib(64));
  tb.submit_at(simple_job("/in"), seconds(30));
  tb.run();
  const auto& job = tb.metrics().jobs()[0];
  EXPECT_EQ(job.submitted, seconds(30));
}

TEST(Engine, JobActiveQueryTracksLifecycle) {
  Testbed tb(small_config());
  tb.load_file("/in", mib(64));
  const JobId id = tb.submit(simple_job("/in"));
  EXPECT_TRUE(tb.engine().job_active(id));
  tb.run();
  EXPECT_FALSE(tb.engine().job_active(id));
}

TEST(Engine, OnJobDoneCallbackFires) {
  Testbed tb(small_config());
  tb.load_file("/in", mib(64));
  std::vector<JobId> done;
  tb.engine().on_job_done = [&](const JobRecord& r) { done.push_back(r.id); };
  const JobId id = tb.submit(simple_job("/in"));
  tb.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], id);
}

TEST(Engine, DyrsMigratesBeforeTasksStart) {
  Testbed tb(small_config(Scheme::Dyrs));
  tb.load_file("/in", mib(256));
  auto spec = simple_job("/in");
  spec.platform_overhead = seconds(8);  // 4 blocks x 1s each: plenty
  tb.submit(spec);
  tb.run();
  EXPECT_NEAR(tb.metrics().memory_read_fraction(), 1.0, 1e-9);
  for (const auto& t : tb.metrics().tasks()) {
    EXPECT_TRUE(dfs::is_memory(t.medium));
    EXPECT_LT(t.read_s(), 0.1);
  }
}

TEST(Engine, HdfsNeverReadsMemory) {
  Testbed tb(small_config(Scheme::Hdfs));
  tb.load_file("/in", mib(256));
  tb.submit(simple_job("/in"));
  tb.run();
  EXPECT_DOUBLE_EQ(tb.metrics().memory_read_fraction(), 0.0);
}

TEST(Engine, InputsInRamAlwaysReadsMemory) {
  Testbed tb(small_config(Scheme::InputsInRam));
  tb.load_file("/in", mib(256));
  auto spec = simple_job("/in");
  spec.platform_overhead = milliseconds(100);  // no lead-time needed
  tb.submit(spec);
  tb.run();
  EXPECT_NEAR(tb.metrics().memory_read_fraction(), 1.0, 1e-9);
}

TEST(Engine, ZeroLeadTimeMeansNoMigrationBenefit) {
  Testbed tb(small_config(Scheme::Dyrs));
  const obs::MemorySink& sink = tb.trace_to_memory();
  tb.load_file("/in", mib(64));
  auto spec = simple_job("/in");
  spec.platform_overhead = 0;
  tb.submit(spec);
  tb.run();
  // The single block's read starts immediately; the migration is missed
  // and cancelled, and the read comes from disk.
  EXPECT_DOUBLE_EQ(tb.metrics().memory_read_fraction(), 0.0);
  std::vector<std::string> reasons;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type == "mig_abort") reasons.push_back(e.str("reason"));
  }
  EXPECT_EQ(reasons, std::vector<std::string>{core::to_string(core::CancelReason::MissedRead)});
}

TEST(Engine, MetricsAggregates) {
  Testbed tb(small_config());
  tb.load_file("/in", mib(128));
  tb.submit(simple_job("/in"));
  tb.run();
  EXPECT_GT(tb.metrics().mean_job_duration_s(), 0.0);
  EXPECT_GT(tb.metrics().mean_map_task_duration_s(), 0.0);
}

TEST(Engine, OutputReplicationWritesToMultipleDisks) {
  auto run_with_replication = [](int replication) {
    TestbedConfig c = small_config();
    c.output_replication = replication;
    Testbed tb(c);
    tb.load_file("/in", mib(128));
    auto spec = simple_job("/in", /*reducers=*/2);
    spec.selectivity = 1.0;  // meaningful output volume
    tb.submit(spec);
    tb.run();
    double write_bytes = 0;
    for (NodeId id : tb.cluster().node_ids()) {
      write_bytes += tb.cluster().node(id).disk().bytes_by_class(cluster::IoClass::Write);
    }
    return write_bytes;
  };
  const double single = run_with_replication(1);
  const double triple = run_with_replication(3);
  EXPECT_NEAR(triple, single * 3.0, single * 0.01);
}

std::int64_t tasks_scanned(Testbed& tb) {
  const obs::Counter* c = tb.registry().find_counter("exec.sched.tasks_scanned");
  return c != nullptr ? c->value() : -1;
}

TEST(EngineDispatch, ScansNothingOnceNoEligibleJobHasUnscheduledMaps) {
  Testbed tb(small_config());
  tb.load_file("/a", mib(64) * 6);
  tb.load_file("/b", mib(64) * 6);
  tb.submit(simple_job("/a", /*reducers=*/2));  // eligible at 2 s, fits in one wave
  tb.submit_at(simple_job("/b"), seconds(60));
  tb.simulator().run_until(seconds(2) + milliseconds(1));
  const std::int64_t placed = tasks_scanned(tb);
  EXPECT_GT(placed, 0);
  // Map completions, reduce placements and reduce completions all call the
  // scheduler; with no map left to place none of them scans anything.
  tb.simulator().run_until(seconds(59));
  ASSERT_FALSE(tb.engine().job_active(JobId(0)));
  EXPECT_EQ(tasks_scanned(tb), placed);
  tb.run();
  EXPECT_GT(tasks_scanned(tb), placed);  // job b's placements do scan
}

TEST(EngineDispatch, EveryMapLocalEverywhereScansEachMapOnce) {
  TestbedConfig c = small_config();
  c.replication = c.num_nodes;
  Testbed tb(c);
  constexpr int kMaps = 20;  // fits the 32 free map slots
  tb.load_file("/in", mib(64) * kMaps);
  tb.submit(simple_job("/in", /*reducers=*/1));
  tb.run();
  EXPECT_EQ(tasks_scanned(tb), kMaps);
  for (const auto& t : tb.metrics().tasks()) {
    if (t.phase == TaskPhase::Map) {
      EXPECT_EQ(t.medium, dfs::ReadMedium::LocalDisk);
    }
  }
}

// Every migration scheme buffers blocks on their disk-replica holders, so
// only a hand-registered replica shows the memory registry deciding locality.
TEST(EngineDispatch, MemoryReplicaAloneMakesMapLocal) {
  TestbedConfig c = small_config();
  c.replication = 1;
  Testbed tb(c);
  const std::vector<BlockId> blocks = tb.load_file("/in", mib(64) * 8).blocks;
  const NodeId node(0);
  BlockId block;
  for (BlockId b : blocks) {
    if (tb.namenode().raw_replicas(b).front() != node) block = b;
  }
  ASSERT_TRUE(block.valid());
  tb.namenode().register_memory_replica(block, node);
  tb.submit(simple_job("/in"));
  tb.run();
  const auto& tasks = tb.metrics().tasks();
  const auto it = std::find_if(tasks.begin(), tasks.end(),
                               [&](const TaskRecord& t) { return t.block == block; });
  ASSERT_NE(it, tasks.end());
  EXPECT_EQ(it->node, node);
  EXPECT_EQ(it->medium, dfs::ReadMedium::LocalMemory);
}

TEST(EngineDispatch, ScanCounterAbsentWithoutObservability) {
  testing::MiniDfs dfs;
  obs::MetricsRegistry registry;
  dfs.client->set_observability(obs::ObsContext(&registry, nullptr));  // the registry is live
  Engine engine(*dfs.cluster, *dfs.namenode, *dfs.client, Engine::Options{});
  dfs.namenode->create_file("/in", mib(64) * 4);
  engine.submit(simple_job("/in", /*reducers=*/1));
  dfs.sim.run_until(seconds(60));
  EXPECT_TRUE(engine.all_done());
  EXPECT_EQ(engine.metrics().tasks().size(), 5u);
  EXPECT_EQ(registry.find_counter("exec.sched.tasks_scanned"), nullptr);
}

TEST(Engine, EmptyInputFilesThrow) {
  Testbed tb(small_config());
  JobSpec spec;
  spec.name = "bad";
  EXPECT_THROW(tb.submit(spec), CheckError);
}

}  // namespace
}  // namespace dyrs::exec
