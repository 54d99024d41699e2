// Memory pressure on the real-threaded backend: settlement-time admission
// into the buffer manager, capacity-pressure demotion to disk (the block's
// buffer is dropped), the buffer gauge and the demotion counter, mig_demote
// events that stay oracle-clean in the merged trace, and demotions
// composing with the failure detector's crash/requeue path.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "faults/rt_fault_injector.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "rt/master.h"

namespace dyrs::rt {
namespace {

using namespace std::chrono_literals;

constexpr Bytes kBlock = mib(1);

RtSlave::Options tier_slave(int node, Bytes memory_capacity) {
  RtSlave::Options o;
  o.node = NodeId(node);
  o.disk_bandwidth = mib_per_sec(64);
  o.queue_capacity = 2;
  o.reference_block = kBlock;
  o.memory_capacity = memory_capacity;
  return o;
}

core::TierPolicy evict_cold() {
  core::TierPolicy p;
  p.on_pressure = core::TierPolicy::OnPressure::EvictColdFirst;
  return p;
}

std::vector<RtBlock> single_node_blocks(int count) {
  std::vector<RtBlock> blocks;
  for (int i = 0; i < count; ++i) blocks.push_back({BlockId(i), kBlock, {NodeId(0)}, JobId(1)});
  return blocks;
}

TEST(RtTier, PressureDemotesToDiskAtSettlement) {
  RtMaster::Options options;
  options.slaves = {tier_slave(0, 2 * kBlock)};
  options.tier = evict_cold();  // the master's policy is every slave's
  RtMaster master(std::move(options));

  master.migrate(single_node_blocks(6));
  ASSERT_TRUE(master.wait_idle(30s));

  RtSlave& slave = master.slave(NodeId(0));
  EXPECT_EQ(master.completed(), 6);
  EXPECT_EQ(slave.demotions(), 4);
  EXPECT_EQ(slave.buffered_count(), 2u);  // demoted blocks dropped their buffers
  EXPECT_EQ(slave.buffered_bytes(), 2 * kBlock);

  // Admissions in settlement order, each demotion logged as it happened.
  const auto log = slave.tier_log();
  int admissions = 0, demotes = 0;
  for (const auto& d : log) {
    if (d.from == Tier::Disk && d.to == Tier::Memory) ++admissions;
    if (d.from == Tier::Memory && d.to == Tier::Disk) ++demotes;
  }
  EXPECT_EQ(admissions, 6);
  EXPECT_EQ(demotes, 4);
  master.shutdown();
}

TEST(RtTier, GaugesAndDemotionCounterTrackTiers) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);

  RtMaster::Options options;
  options.slaves = {tier_slave(0, 2 * kBlock)};
  options.tier = evict_cold();
  options.obs = obs::ObsContext(&registry, &tracer);
  RtMaster master(std::move(options));

  master.migrate(single_node_blocks(6));
  ASSERT_TRUE(master.wait_idle(30s));

  EXPECT_EQ(registry.gauge("node0.tier.memory.used_bytes").value(),
            static_cast<double>(master.slave(NodeId(0)).buffered_bytes()));
  EXPECT_EQ(registry.counter("dyrs.migrations.demoted").value(),
            master.slave(NodeId(0)).demotions());

  // The merged trace carries the demote lifecycle and satisfies the rt
  // invariant profile, demote rule included.
  master.shutdown();
  obs::TraceInvariants oracle;
  oracle.profile = obs::TraceInvariants::Profile::Rt;
  oracle.flag_open_lifecycles = true;
  const auto report = oracle.check(obs::TraceReader(sink.merge_thread_buffers()));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.demotions, 4u);
}

TEST(RtTier, RefuseAdmissionStillSettlesMigrations) {
  // Default policy: a full memory tier refuses new blocks, but the rt
  // backend settles them anyway (the data was read; it just isn't kept).
  RtMaster::Options options;
  options.slaves = {tier_slave(0, 2 * kBlock)};
  RtMaster master(std::move(options));

  master.migrate(single_node_blocks(6));
  ASSERT_TRUE(master.wait_idle(30s));

  RtSlave& slave = master.slave(NodeId(0));
  EXPECT_EQ(master.completed(), 6);
  EXPECT_EQ(slave.demotions(), 0);
  EXPECT_EQ(slave.buffered_count(), 2u);
  EXPECT_EQ(slave.buffered_bytes(), 2 * kBlock);
  master.shutdown();
}

TEST(RtTier, EvictJobReleasesBuffers) {
  RtMaster::Options options;
  options.slaves = {tier_slave(0, 2 * kBlock)};
  options.tier = evict_cold();
  RtMaster master(std::move(options));

  master.migrate(single_node_blocks(6));
  ASSERT_TRUE(master.wait_idle(30s));
  ASSERT_GT(master.slave(NodeId(0)).demotions(), 0);
  ASSERT_EQ(master.slave(NodeId(0)).buffered_count(), 2u);

  master.evict_job(JobId(1));
  RtSlave& slave = master.slave(NodeId(0));
  EXPECT_EQ(slave.buffered_count(), 0u);
  EXPECT_EQ(slave.buffered_bytes(), 0);
  master.shutdown();
}

// A slave crash mid-run under memory pressure: its buffered blocks die
// with the process, the failure detector requeues the bound
// work to the survivor, and the survivor's own demotions proceed — the
// whole episode staying oracle-clean.
TEST(RtTier, DemotionsComposeWithCrashRequeue) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);

  RtMaster::Options options;
  options.slaves = {tier_slave(0, 2 * kBlock), tier_slave(1, 2 * kBlock)};
  options.tier = evict_cold();
  options.retarget_interval = 2ms;
  options.failure_detection.enabled = true;
  options.failure_detection.monitor_interval = 5ms;
  options.failure_detection.suspect_after = 60ms;
  options.failure_detection.declare_dead_after = 150ms;
  options.obs = obs::ObsContext(&registry, &tracer);
  RtMaster master(std::move(options));

  std::vector<RtBlock> blocks;
  for (int i = 0; i < 16; ++i) {
    blocks.push_back({BlockId(i), kBlock, {NodeId(0), NodeId(1)}, JobId(1)});
  }

  faults::RtFaultInjector injector(master, /*seed=*/11);
  faults::FaultPlan plan;
  plan.crash_process(NodeId(1), milliseconds(40), milliseconds(3000));
  injector.install(plan);

  master.migrate(blocks);
  ASSERT_TRUE(master.wait_idle(60s));
  EXPECT_EQ(master.completed(), 16);
  EXPECT_EQ(master.pending(), 0u);

  // Everything not settled before the crash ended up on node 0, whose
  // 2-block cap demotes most of it to disk.
  RtSlave& survivor = master.slave(NodeId(0));
  EXPECT_GT(survivor.demotions(), 0);
  EXPECT_EQ(survivor.buffered_bytes(), 2 * kBlock);

  ASSERT_TRUE(injector.wait_done(10000ms));
  master.shutdown();
  obs::TraceInvariants oracle;
  oracle.profile = obs::TraceInvariants::Profile::RtFaults;
  oracle.flag_open_lifecycles = true;
  const auto report = oracle.check(obs::TraceReader(sink.merge_thread_buffers()));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.demotions, 0u);
}

}  // namespace
}  // namespace dyrs::rt
