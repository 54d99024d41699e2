// Timer-heavy golden digest: one DYRS testbed runs every kind of recurring
// or delayed simulator event the library creates (master pulses and
// Algorithm 1 retarget passes, DFS heartbeats, anti-phase alternating
// interference, the telemetry sampler, periodic invariant checks, and a
// fault plan's crash, restart and disk degradation) and pins the trace,
// the job and task records and the per-node disk bytes by I/O class. A
// change to the event core must keep every same-time tie in its order, so
// the digest must not move. The run also asserts that it exercised each
// timer kind: a digest that stops reaching a path pins nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>

#include "exec/testbed.h"
#include "faults/fault_plan.h"

namespace dyrs::exec {
namespace {

constexpr std::size_t kJobs = 12;
const NodeId kCrashNode(2);
const NodeId kDegradedNode(3);

class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) byte((word >> (8 * i)) & 0xff);
  }
  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
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

TEST(TimerGolden, EveryTimerKindKeepsItsDigest) {
  TestbedConfig c;
  c.num_nodes = 6;
  c.map_slots_per_node = 2;
  c.reduce_slots_per_node = 1;
  c.disk_bandwidth = mib_per_sec(64);
  c.block_size = mib(64);
  c.master.slave.heartbeat_interval = seconds(1);
  c.master.slave.reference_block = mib(64);
  c.scheme = Scheme::Dyrs;
  Testbed tb(c);
  obs::MemorySink& sink = tb.trace_to_memory();
  tb.enable_sampling();
  tb.enable_invariant_checks();
  auto& alt0 = tb.add_alternating_interference(NodeId(0), seconds(4), true);
  auto& alt1 = tb.add_alternating_interference(NodeId(1), seconds(4), false);
  tb.install_fault_plan(faults::FaultPlan()
                            .crash_process(kCrashNode, seconds(6), seconds(30))
                            .degrade_disk(kDegradedNode, seconds(4), seconds(20), 0.25));

  for (std::size_t i = 0; i < kJobs; ++i) {
    const std::string file = "/in" + std::to_string(i);
    tb.load_file(file, mib(64) * static_cast<Bytes>(4 + (i * 5) % 11));
    JobSpec spec;
    spec.name = "job" + std::to_string(i);
    spec.input_files = {file};
    spec.selectivity = 0.5;
    spec.num_reducers = 2;
    spec.platform_overhead = seconds(1);
    spec.extra_lead_time = seconds(3);
    spec.task_overhead = milliseconds(100);
    tb.submit_at(spec, seconds(2) * static_cast<SimDuration>(i));
  }
  tb.run();
  ASSERT_EQ(tb.metrics().jobs().size(), kJobs);

  // Each timer kind ran.
  ASSERT_NE(tb.master(), nullptr);
  std::set<SimTime> bind_times;  // DYRS binds only inside a master pulse
  std::size_t targets = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type == "mig_bind") bind_times.insert(e.at);
    targets += e.type == "mig_target" ? 1 : 0;
  }
  EXPECT_GT(bind_times.size(), 10u);                                // master pulses
  EXPECT_GT(targets, 0u);                                           // retarget passes
  // Anti-phase toggling: each activation starts two interference flows.
  EXPECT_NE(alt0.active(), alt1.active());
  for (NodeId id : {NodeId(0), NodeId(1)}) {
    EXPECT_GT(tb.cluster().node(id).disk().ios_by_class(cluster::IoClass::Interference), 10);
  }
  ASSERT_NE(tb.sampler(), nullptr);
  EXPECT_GT(tb.sampler()->series("node0.disk.util").size(), 10u);
  ASSERT_NE(tb.invariants(), nullptr);
  EXPECT_GT(tb.invariants()->checks_run(), 10);
  EXPECT_TRUE(tb.invariants()->violations().empty());
  ASSERT_NE(tb.injector(), nullptr);
  EXPECT_EQ(tb.injector()->events_applied(), 4);

  // Captured on the engine and namenode that still carried speculative
  // maps and re-replication, with both left off.
  Fnv trace;
  for (const obs::TraceEvent& e : sink.events()) trace.add_text(obs::to_json(e));
  Fnv records;
  for (const JobRecord& j : tb.metrics().jobs()) {
    records.add(j.id.value());
    records.add(static_cast<std::uint64_t>(j.submitted));
    records.add(static_cast<std::uint64_t>(j.eligible));
    records.add(static_cast<std::uint64_t>(j.first_task_start));
    records.add(static_cast<std::uint64_t>(j.maps_done));
    records.add(static_cast<std::uint64_t>(j.finished));
  }
  for (const TaskRecord& t : tb.metrics().tasks()) {
    records.add(t.job.value());
    records.add(t.id.value());
    records.add(static_cast<std::uint64_t>(t.phase));
    records.add(t.node.value());
    records.add(static_cast<std::uint64_t>(t.started));
    records.add(static_cast<std::uint64_t>(t.read_done));
    records.add(static_cast<std::uint64_t>(t.finished));
    records.add(static_cast<std::uint64_t>(t.medium));
    records.add(t.read_source.valid() ? t.read_source.value() : ~0ULL);
  }
  Fnv disks;
  for (NodeId id : tb.cluster().node_ids()) {
    const cluster::Disk& disk = tb.cluster().node(id).disk();
    for (auto io : {cluster::IoClass::MigrationRead, cluster::IoClass::TaskRead,
                    cluster::IoClass::Write, cluster::IoClass::Interference}) {
      disks.add_double(disk.bytes_by_class(io));
      disks.add(static_cast<std::uint64_t>(disk.ios_by_class(io)));
    }
  }
  EXPECT_EQ(sink.events().size(), 2436u);
  EXPECT_EQ(trace.value(), 0x08848bbc6e3dd00cULL);
  EXPECT_EQ(records.value(), 0x2440501d08e01c74ULL);
  EXPECT_EQ(disks.value(), 0xbe401acc740cbb08ULL);
  EXPECT_EQ(tb.simulator().now(), 52835127);
}

}  // namespace
}  // namespace dyrs::exec
