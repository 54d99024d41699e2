// Failure-surface tests for the real-threaded runtime: RtFaultInjector
// executing FaultPlans on wall-clock time against a live RtMaster, and the
// master's heartbeat-driven failure detector (timeout -> suspicion ->
// declared-dead, bound-work reclaim, rejoin). Wall-clock timing is loose —
// detection windows are sized so transitions are unambiguous even on a
// loaded CI machine.
#include "faults/rt_fault_injector.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <vector>

#include "common/check.h"
#include "faults/fault_surface.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "rt/master.h"
#include "testing/bind_order.h"

namespace dyrs::rt {
namespace {

using namespace std::chrono_literals;

RtSlave::Options slave_opts(int node, Rate bw) {
  RtSlave::Options o;
  o.node = NodeId(node);
  o.disk_bandwidth = bw;
  o.queue_capacity = 2;
  o.reference_block = mib(1);
  o.heartbeat_interval = 5ms;
  return o;
}

/// Master options over `slaves`, Algorithm 1 passes every 2 ms.
RtMaster::Options master_opts(std::vector<RtSlave::Options> slaves) {
  RtMaster::Options options;
  options.slaves = std::move(slaves);
  options.retarget_interval = 2ms;
  return options;
}

core::FailureDetection fast_detection() {
  core::FailureDetection fd;
  fd.enabled = true;
  fd.monitor_interval = 5ms;
  fd.suspect_after = 60ms;
  fd.declare_dead_after = 150ms;
  return fd;
}

/// Polls the detector until `node` reaches `want` or `timeout` elapses.
bool wait_state(RtMaster& master, NodeId node, RtMaster::NodeState want,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (master.node_state(node) == want) return true;
    std::this_thread::sleep_for(2ms);
  }
  return master.node_state(node) == want;
}

// The acceptance scenario: a scripted FaultPlan crashes a slave mid-
// migration; every job still completes on the rt backend because the
// failure detector reclaims the abandoned bindings and requeues them to
// the survivors with the dead node on the avoid list.
TEST(RtFaults, SlaveCrashMidMigrationRequeuesToSurvivors) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);

  RtMaster::Options options;
  options.slaves = {slave_opts(0, mib_per_sec(64)), slave_opts(1, mib_per_sec(64)),
                    slave_opts(2, mib_per_sec(64))};
  options.retarget_interval = 2ms;
  options.failure_detection = fast_detection();
  options.obs = obs::ObsContext(&registry, &tracer);
  RtMaster master(std::move(options));

  // Nodes 0 and 1 carry a deep backlog of single-replica fast blocks
  // (~750ms each at 64MiB/s), so Algorithm 1 sends the dual-replica
  // blocks {2, 0} to the idle node 2 (earliest finish even for the third:
  // 750ms vs ~1s behind node 0's backlog). Each 16MiB read takes ~250ms —
  // far longer than the 70ms to the crash, so node 2 abandons them all
  // mid-transfer even if the timeline thread fires late.
  std::vector<RtBlock> blocks;
  for (int i = 0; i < 48; ++i) blocks.push_back({BlockId(i), mib(1), {NodeId(0)}, JobId(1)});
  for (int i = 0; i < 48; ++i) blocks.push_back({BlockId(100 + i), mib(1), {NodeId(1)}, JobId(1)});
  for (int i = 0; i < 3; ++i) {
    blocks.push_back({BlockId(200 + i), mib(16), {NodeId(2), NodeId(0)}, JobId(2)});
  }

  faults::RtFaultInjector injector(master, /*seed=*/7);
  faults::FaultSurface& surface = injector;  // exercised via the shared interface
  // Restart only after the survivors have drained everything (~1.5s), so
  // no still-pending block can retarget back to the rejoined node and
  // perturb the per-node counts below.
  faults::FaultPlan plan;
  plan.crash_process(NodeId(2), milliseconds(70), milliseconds(2500));
  surface.install(plan);

  master.migrate(blocks);
  ASSERT_TRUE(wait_state(master, NodeId(2), RtMaster::NodeState::Dead, 5000ms));

  ASSERT_TRUE(master.wait_idle(60s));
  EXPECT_EQ(master.completed(), 99);
  EXPECT_EQ(master.pending(), 0u);
  // Node 2 never finished a dual block (first complete would land at
  // ~250ms, after the 70ms crash): all three settled on the survivor
  // replica, node 0. At least the bound ones went through a heartbeat-loss
  // requeue with node 2 on the avoid list.
  auto per_node = master.completed_per_node();
  EXPECT_EQ(per_node[NodeId(2)], 0);
  EXPECT_EQ(per_node[NodeId(0)], 51);
  EXPECT_EQ(per_node[NodeId(1)], 48);
  EXPECT_GE(master.requeued(), 2);

  // The restart at 900ms resumes heartbeats: the node rejoins the eligible
  // set and serves new work again.
  ASSERT_TRUE(injector.wait_done(10000ms));
  ASSERT_TRUE(wait_state(master, NodeId(2), RtMaster::NodeState::Alive, 5000ms));
  master.migrate({{BlockId(300), mib(1), {NodeId(2)}, JobId(3)}});
  ASSERT_TRUE(master.wait_idle(30s));
  EXPECT_EQ(master.completed_per_node()[NodeId(2)], 1);
  EXPECT_EQ(surface.events_applied(), 2);

  // The merged trace of the whole episode satisfies the rt-faults
  // invariant profile: heartbeat-loss aborts, requeue spans and zombie
  // tolerance are all per-block rules and stay checked.
  master.shutdown();
  obs::TraceReader reader(sink.merge_thread_buffers());
  obs::TraceInvariants oracle;
  oracle.profile = obs::TraceInvariants::Profile::RtFaults;
  oracle.flag_open_lifecycles = true;
  const obs::InvariantReport report = oracle.check(reader);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.open_at_end, 0u);
}

TEST(RtFaults, PartitionDeclaredDeadZombieSuppressedThenRejoins) {
  RtMaster::Options options;
  options.slaves = {slave_opts(0, mib_per_sec(64)), slave_opts(1, mib_per_sec(64))};
  options.retarget_interval = 2ms;
  options.failure_detection = fast_detection();
  RtMaster master(std::move(options));

  // Node 0 is busy with its own backlog; the dual-replica 16MiB block
  // (~250ms read) deterministically binds to the idle node 1.
  std::vector<RtBlock> blocks;
  for (int i = 0; i < 24; ++i) blocks.push_back({BlockId(i), mib(1), {NodeId(0)}, JobId(1)});
  blocks.push_back({BlockId(500), mib(16), {NodeId(1), NodeId(0)}, JobId(2)});

  faults::RtFaultInjector injector(master, /*seed=*/3);
  faults::FaultPlan plan;
  plan.partition(NodeId(1), milliseconds(40), milliseconds(900));
  injector.install(plan);

  master.migrate(blocks);
  // The partitioned slave keeps transferring but goes silent; the detector
  // declares it dead and the block is requeued to node 0.
  ASSERT_TRUE(wait_state(master, NodeId(1), RtMaster::NodeState::Dead, 5000ms));
  EXPECT_TRUE(master.slave(NodeId(1)).running());  // daemon alive, just unreachable

  ASSERT_TRUE(master.wait_idle(60s));
  EXPECT_EQ(master.completed(), 25);
  // The zombie's own completion of block 500 was suppressed (its binding
  // was reclaimed): node 0 owns the migration.
  EXPECT_EQ(master.completed_per_node()[NodeId(0)], 25);
  EXPECT_EQ(master.completed_per_node()[NodeId(1)], 0);
  EXPECT_GE(master.requeued(), 1);

  ASSERT_TRUE(injector.wait_done(10000ms));
  ASSERT_TRUE(wait_state(master, NodeId(1), RtMaster::NodeState::Alive, 5000ms));
}

TEST(RtFaults, IoErrorWindowRetriesLocallyUntilClean) {
  RtMaster::Options options = master_opts({slave_opts(0, mib_per_sec(400))});
  // Generous local budget: with rate 0.5 the chance of exhausting 50
  // attempts is negligible, so every block settles on its home node.
  options.retry = {.max_attempts = 50, .backoff = milliseconds(1), .backoff_cap = milliseconds(4)};
  RtMaster master(std::move(options));

  faults::RtFaultInjector injector(master, /*seed=*/11);
  faults::FaultPlan plan;
  plan.io_errors(NodeId(0), 0, seconds(30), 0.5);
  injector.install(plan);

  std::vector<RtBlock> blocks;
  for (int i = 0; i < 12; ++i) blocks.push_back({BlockId(i), 256 * kKiB, {NodeId(0)}, JobId(1)});
  master.migrate(blocks);
  ASSERT_TRUE(master.wait_idle(60s));
  EXPECT_EQ(master.completed(), 12);
  EXPECT_GT(injector.io_errors_injected(), 0);
  EXPECT_GT(master.slave(NodeId(0)).retries(), 0);
  EXPECT_EQ(master.slave(NodeId(0)).permanent_failures(), 0);
}

TEST(RtFaults, DiskDegradationScalesAndRestoresBandwidth) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(100))}));
  const Rate base = master.slave(NodeId(0)).disk().bandwidth();

  faults::RtFaultInjector injector(master, /*seed=*/5);
  faults::FaultPlan plan;
  plan.degrade_disk(NodeId(0), milliseconds(10), milliseconds(700), 0.25);
  plan.degrade_disk(NodeId(0), milliseconds(30), milliseconds(600), 0.5);  // overlap multiplies
  injector.install(plan);

  std::this_thread::sleep_for(200ms);
  EXPECT_NEAR(master.slave(NodeId(0)).disk().bandwidth(), base * 0.25 * 0.5, base * 0.01);
  ASSERT_TRUE(injector.wait_done(10000ms));
  EXPECT_EQ(master.slave(NodeId(0)).disk().bandwidth(), base);
  EXPECT_EQ(injector.events_applied(), 4);
}

TEST(RtFaults, StopRestoresUnfinishedWindows) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(100))}));
  const Rate base = master.slave(NodeId(0)).disk().bandwidth();

  faults::RtFaultInjector injector(master, /*seed=*/5);
  faults::FaultPlan plan;
  plan.degrade_disk(NodeId(0), milliseconds(5), seconds(600), 0.1);
  plan.partition(NodeId(0), milliseconds(5), seconds(600));
  injector.install(plan);
  std::this_thread::sleep_for(60ms);
  EXPECT_LT(master.slave(NodeId(0)).disk().bandwidth(), base);
  EXPECT_TRUE(master.slave(NodeId(0)).partitioned());

  injector.stop();  // cluster must come back healthy
  EXPECT_EQ(master.slave(NodeId(0)).disk().bandwidth(), base);
  EXPECT_FALSE(master.slave(NodeId(0)).partitioned());
}

TEST(RtFaults, InstallRejectsUnknownNodeAndDoubleInstall) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(100))}));
  faults::RtFaultInjector injector(master, /*seed=*/1);
  faults::FaultPlan bad;
  bad.crash_process(NodeId(9), milliseconds(1), milliseconds(2));
  EXPECT_THROW(injector.install(bad), dyrs::CheckError);

  faults::FaultPlan ok;
  ok.degrade_disk(NodeId(0), milliseconds(1), milliseconds(2), 0.5);
  injector.install(ok);
  EXPECT_THROW(injector.install(ok), dyrs::CheckError);
}

TEST(RtFaults, SuspicionIsAGracePeriodNotADeclaration) {
  // Stale heartbeats past suspect_after but short of declare_dead_after
  // must only mark the node Suspect; resumed heartbeats clear it without
  // any reclaim.
  RtMaster::Options options;
  options.slaves = {slave_opts(0, mib_per_sec(100))};
  options.retarget_interval = 2ms;
  options.failure_detection.enabled = true;
  options.failure_detection.monitor_interval = 5ms;
  options.failure_detection.suspect_after = 50ms;
  options.failure_detection.declare_dead_after = 10s;
  RtMaster master(std::move(options));
  EXPECT_EQ(master.node_state(NodeId(0)), RtMaster::NodeState::Alive);

  master.slave(NodeId(0)).set_partitioned(true);
  ASSERT_TRUE(wait_state(master, NodeId(0), RtMaster::NodeState::Suspect, 5000ms));
  master.slave(NodeId(0)).set_partitioned(false);
  ASSERT_TRUE(wait_state(master, NodeId(0), RtMaster::NodeState::Alive, 5000ms));
  EXPECT_EQ(master.requeued(), 0);
}

// Regression for the bind_for avoid-list hole: a block whose replica
// exhausted its retry budget is requeued with that node on its avoid list,
// and must never bind there again. A merge that grows an entry's avoid
// list keeps the target the last pass chose, so until the next pass a
// target can still point at an avoided node; the bind-time avoid check is
// what keeps the block off it.
TEST(RtFaults, PermanentIoErrorsNeverRebindToAvoidedReplica) {
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);
  RtMaster::Options options;
  // Node 0 is the fastest, Algorithm 1's first pick; only its reads fail.
  options.slaves = {slave_opts(0, mib_per_sec(400)), slave_opts(1, mib_per_sec(100))};
  options.retarget_interval = 2ms;
  options.retry = {.max_attempts = 2, .backoff = milliseconds(1), .backoff_cap = milliseconds(2)};
  options.obs = obs::ObsContext(nullptr, &tracer);
  RtMaster master(std::move(options));

  faults::RtFaultInjector injector(master, /*seed=*/3);
  faults::FaultPlan plan;
  plan.io_errors(NodeId(0), 0, seconds(60), 1.0);  // every attempt on node 0 fails
  injector.install(plan);

  std::vector<RtBlock> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back({BlockId(i), 256 * kKiB, {NodeId(0), NodeId(1)}, JobId(1)});
  master.migrate(blocks);
  ASSERT_TRUE(master.wait_idle(60s));

  EXPECT_EQ(master.completed(), 4);
  EXPECT_EQ(master.completed_per_node()[NodeId(0)], 0);
  EXPECT_EQ(master.completed_per_node()[NodeId(1)], 4);
  EXPECT_GE(master.slave(NodeId(0)).permanent_failures(), 1);
  EXPECT_GE(master.requeued(), 1);

  // Each block visits node 0 at most once; after the failure joins its
  // avoid list, every further bind is at node 1.
  injector.stop();
  master.shutdown();  // quiesce emitters before reading buffers
  testing::BindOrder binds = testing::bind_order(sink.merge_thread_buffers());
  std::map<BlockId, int> binds_at_bad;
  for (BlockId block : binds[NodeId(0)]) ++binds_at_bad[block];
  for (const auto& [block, count] : binds_at_bad) {
    EXPECT_LE(count, 1) << "block " << block << " re-bound to its avoided replica";
  }
}

// Zombie suppression with *batched* completions: a partitioned slave
// finishes a whole drain cycle and flushes one report of four members after
// their bindings were reclaimed. Suppression is keyed on each member's
// (block, node, cycle) — never on the report — so all four drop
// individually and nothing settles twice or leaks into the counters.
TEST(RtFaults, BatchedZombieCompletionsSuppressedPerMember) {
  constexpr int kBacklog = 64;

  RtMaster::Options options;
  auto busy = slave_opts(0, mib_per_sec(64));
  auto victim = slave_opts(1, mib_per_sec(64));
  busy.queue_capacity = 4;
  victim.queue_capacity = 4;
  options.slaves = {busy, victim};
  options.retarget_interval = 10ms;
  // Wider windows than fast_detection(): under TSan the 150ms dead window
  // false-positives on the *busy* node (a retarget pass holding mu_ can
  // stall its pull — and so its worker-loop heartbeat — for >150ms at
  // sanitizer speed), which would requeue the dual blocks with node 0 on
  // the avoid list too and abort them untargetable. 500ms still declares
  // the victim dead well before its ~1s cycle's flush, which is the only
  // ordering this test needs.
  options.failure_detection = fast_detection();
  options.failure_detection.suspect_after = 200ms;
  options.failure_detection.declare_dead_after = 500ms;
  RtMaster master(std::move(options));

  // Node 0 carries a 64MiB single-replica backlog (~1s at 64MiB/s), so the
  // earliest-finish pass sends every 16MiB block to the idle node 1 — even
  // the fourth (cumulative 1.0s vs 1.25s behind the backlog). Node 1 pulls
  // all four at once and reads them in ONE drain cycle (~1s), flushing one
  // completion report at the end.
  std::vector<RtBlock> blocks;
  for (int i = 0; i < kBacklog; ++i) {
    blocks.push_back({BlockId(i), mib(1), {NodeId(0)}, JobId(1)});
  }
  blocks.push_back({BlockId(600), mib(16), {NodeId(1)}, JobId(2)});  // single replica
  for (int i = 1; i < 4; ++i) {
    blocks.push_back({BlockId(600 + i), mib(16), {NodeId(1), NodeId(0)}, JobId(2)});
  }

  // Partition node 1 at 40ms — long before its ~1s cycle finishes — and
  // heal at 1.5s. The detector reclaims all four bindings at ~550ms:
  // block 600 (only replica is the dead node) aborts untargetable, the
  // three dual blocks requeue to node 0 with node 1 on the avoid list.
  faults::RtFaultInjector injector(master, /*seed=*/11);
  faults::FaultPlan plan;
  plan.partition(NodeId(1), milliseconds(40), milliseconds(1500));
  injector.install(plan);

  master.migrate(blocks);
  ASSERT_TRUE(wait_state(master, NodeId(1), RtMaster::NodeState::Dead, 5000ms));
  EXPECT_TRUE(master.slave(NodeId(1)).running());  // zombie: alive, unreachable

  ASSERT_TRUE(master.wait_idle(60s));
  // The zombie's local reads all finish (the partition only silences
  // heartbeats); poll until its flush lands so the suppression below is
  // actually exercised, not raced past.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (master.slave(NodeId(1)).completed() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(master.slave(NodeId(1)).completed(), 4);

  // Exactly-once settlement: backlog + the three requeued dual blocks, all
  // owned by node 0; every one of the four batched zombie reports dropped.
  EXPECT_EQ(master.completed(), kBacklog + 3);
  EXPECT_EQ(master.completed_per_node()[NodeId(0)], kBacklog + 3);
  EXPECT_EQ(master.completed_per_node()[NodeId(1)], 0);
  EXPECT_GE(master.requeued(), 3);
  EXPECT_EQ(master.pending(), 0u);  // block 600 aborted, not hung
  const auto per_job = master.completed_per_job();
  EXPECT_EQ(per_job.at(JobId(1)), kBacklog);
  EXPECT_EQ(per_job.at(JobId(2)), 3);

  ASSERT_TRUE(injector.wait_done(10000ms));
  ASSERT_TRUE(wait_state(master, NodeId(1), RtMaster::NodeState::Alive, 5000ms));
}

TEST(RtFaults, DetectionDisabledReportsAlive) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(100))}));
  master.slave(NodeId(0)).crash();
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(master.node_state(NodeId(0)), RtMaster::NodeState::Alive);
  EXPECT_FALSE(master.slave(NodeId(0)).running());
  master.slave(NodeId(0)).restart();
  EXPECT_TRUE(master.slave(NodeId(0)).running());
}

}  // namespace
}  // namespace dyrs::rt
