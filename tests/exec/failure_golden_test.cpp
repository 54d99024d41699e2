// Failure-path golden digest for the sim master. A 28-node DYRS testbed,
// on which most slaves hold no work at any moment, runs every path the
// perfbench workloads never take: a process crash, a server death, a
// partition long enough for the namenode to declare the node dead, a
// master failover (and the rebuild pulse after it), and an Algorithm 1 pass
// while every replica holder of a pending block is down but the rest of the
// cluster is up. The digest pins the per-job times, every `mig_*` trace
// event (cancel reasons included) and the counts per cancel reason; the run
// also asserts that it reached each path, because a digest that stops
// reaching a path pins nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/testbed.h"
#include "faults/fault_plan.h"

namespace dyrs::exec {
namespace {

constexpr std::size_t kJobs = 13;
constexpr int kNodes = 28;
const JobId kColdJob(900);
const JobId kWarmJob(901);

class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) byte((word >> (8 * i)) & 0xff);
  }
  void add_text(const std::string& s) {
    for (unsigned char c : s) byte(c);
    byte(0);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The first node id at or above `from` that is not in `taken`.
NodeId pick(const std::vector<NodeId>& taken, int from) {
  for (int n = from; n < kNodes; ++n) {
    if (std::find(taken.begin(), taken.end(), NodeId(n)) == taken.end()) return NodeId(n);
  }
  return NodeId::invalid();
}

TEST(FailureGolden, SimMasterFailurePathsKeepTheirDigest) {
  TestbedConfig c;
  c.num_nodes = kNodes;
  c.map_slots_per_node = 2;
  c.reduce_slots_per_node = 1;
  c.disk_bandwidth = mib_per_sec(64);
  c.block_size = mib(64);
  c.master.slave.heartbeat_interval = seconds(1);
  c.master.slave.reference_block = mib(64);
  c.scheme = Scheme::Dyrs;
  Testbed tb(c);
  obs::MemorySink& sink = tb.trace_to_memory();
  ASSERT_NE(tb.master(), nullptr);

  // A two-block file no job reads. Every holder of its first block is down
  // from 2 s to 12 s; the master is asked to migrate the file at 4 s, so
  // that enqueue's Algorithm 1 pass runs with the other nodes up.
  const dfs::FileMeta cold = tb.load_file("/cold", mib(64) * 2);
  const std::vector<NodeId> holders = tb.namenode().raw_replicas(cold.blocks[0]);
  faults::FaultPlan plan;
  for (NodeId n : holders) plan.crash_process(n, seconds(2), seconds(12));
  // Later, while jobs run: a process crash, a server death and, while that
  // server is down, a partition longer than the namenode's dead window
  // (three missed 3 s heartbeats). The crash and the death strike half a
  // second after a 60-block job was submitted, while its migrations are
  // bound. The partitioned node's disk slows to a crawl first, so the
  // work bound to it is still there when the namenode declares it dead.
  const NodeId crash = pick({}, 3);
  const NodeId dead = pick({crash}, 9);
  const NodeId part = pick({crash, dead}, 15);
  plan.crash_process(crash, milliseconds(21'500), seconds(26))
      .kill_server(dead, milliseconds(31'500), seconds(48))
      .degrade_disk(part, seconds(33), seconds(60), 0.05)
      .partition(part, seconds(34), seconds(60));
  tb.install_fault_plan(plan);
  tb.simulator().schedule_at(seconds(4), [&tb, &cold] {
    tb.master()->migrate_blocks(kColdJob, cold.blocks, core::EvictionMode::Explicit);
  });
  tb.simulator().schedule_at(seconds(18), [&tb] { tb.master()->evict_job(kColdJob); });
  tb.simulator().schedule_at(seconds(27), [&tb] { tb.master()->master_failover(); });
  // No job reads `/warm` either, so no missed read cancels the migrations
  // bound to the partitioned node before the namenode declares it dead.
  const dfs::FileMeta warm = tb.load_file("/warm", mib(64) * 40);
  tb.simulator().schedule_at(seconds(33), [&tb, &warm] {
    tb.master()->migrate_blocks(kWarmJob, warm.blocks, core::EvictionMode::Explicit);
  });
  tb.simulator().schedule_at(seconds(64), [&tb] { tb.master()->evict_job(kWarmJob); });

  std::vector<std::pair<SimTime, int>> jobs_at = {{seconds(20), 60}, {seconds(30), 60},
                                                  {seconds(33), 60}};
  for (int i = 0; i < 10; ++i) jobs_at.emplace_back(seconds(36 + 3 * i), 4 + (i * 5) % 11);
  for (std::size_t i = 0; i < jobs_at.size(); ++i) {
    const std::string file = "/in" + std::to_string(i);
    tb.load_file(file, mib(64) * static_cast<Bytes>(jobs_at[i].second));
    JobSpec spec;
    spec.name = "job" + std::to_string(i);
    spec.input_files = {file};
    spec.selectivity = 0.5;
    spec.num_reducers = 2;
    spec.platform_overhead = seconds(1);
    spec.extra_lead_time = seconds(3);
    spec.task_overhead = milliseconds(100);
    tb.submit_at(spec, jobs_at[i].first);
  }
  tb.run();
  ASSERT_EQ(tb.metrics().jobs().size(), kJobs);
  ASSERT_NE(tb.injector(), nullptr);
  EXPECT_EQ(tb.injector()->events_applied(), 2 * static_cast<int>(holders.size()) + 8);

  // Each path ran. The cold block's enqueue pass left it untargeted: its
  // first target came only after its holders restarted.
  std::map<std::string, int> reasons;
  SimTime cold_enqueued = -1, cold_first_target = -1, other_first_target = -1;
  bool failover = false;
  std::size_t binds_after_failover = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type == "master_failover") failover = true;
    if (e.type == "mig_abort") ++reasons[e.str("reason")];
    if (e.type == "mig_bind" && failover) ++binds_after_failover;
    const std::int64_t block = e.i64("block", -1);
    if (e.type == "mig_enqueue" && block == cold.blocks[0].value() && cold_enqueued < 0) {
      cold_enqueued = e.at;
    }
    if (e.type == "mig_target" && block == cold.blocks[0].value() && cold_first_target < 0) {
      cold_first_target = e.at;
    }
    if (e.type == "mig_target" && block == cold.blocks[1].value() && other_first_target < 0) {
      other_first_target = e.at;
    }
  }
  EXPECT_EQ(cold_enqueued, seconds(4));
  EXPECT_GE(cold_first_target, seconds(12));
  EXPECT_EQ(other_first_target, seconds(4));
  EXPECT_TRUE(failover);
  EXPECT_GT(binds_after_failover, 0u);
  EXPECT_FALSE(tb.master()->rebuilding());
  EXPECT_GT(reasons["slave-crash"], 0);
  EXPECT_GT(reasons["heartbeat-loss"], 0);
  EXPECT_GT(tb.master()->migrations_requeued(), 0);

  Fnv jobs;
  for (const JobRecord& j : tb.metrics().jobs()) {
    jobs.add(j.id.value());
    jobs.add(static_cast<std::uint64_t>(j.submitted));
    jobs.add(static_cast<std::uint64_t>(j.eligible));
    jobs.add(static_cast<std::uint64_t>(j.first_task_start));
    jobs.add(static_cast<std::uint64_t>(j.maps_done));
    jobs.add(static_cast<std::uint64_t>(j.finished));
  }
  Fnv trace;
  std::size_t mig_events = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type.rfind("mig_", 0) != 0) continue;
    ++mig_events;
    trace.add_text(obs::to_json(e));
  }
  Fnv cancels;
  for (const auto& [reason, n] : reasons) {
    cancels.add_text(reason);
    cancels.add(static_cast<std::uint64_t>(n));
  }
  // Captured before the sim master's per-event work followed the busy
  // nodes (per-target pending lists, the pulse that skips idle slaves,
  // targeted eviction, replica-holder snapshots).
  EXPECT_EQ(mig_events, 1591u);
  EXPECT_EQ(jobs.value(), 0x81f4a81e939d1e96ULL) << std::hex << jobs.value();
  EXPECT_EQ(trace.value(), 0xcb2e1601a32364bdULL) << std::hex << trace.value();
  EXPECT_EQ(cancels.value(), 0xe80b5d046539c844ULL) << std::hex << cancels.value();
  EXPECT_EQ(tb.simulator().now(), 68750797);
}

}  // namespace
}  // namespace dyrs::exec
