// Golden dispatch digests: pin every placement decision of the exec slot
// scheduler (which task ran where and when, and what its read hit) on three
// small scenarios, so a rewrite of the dispatch loop must reproduce the
// decisions exactly. Each scenario also asserts that it reaches the path
// it exists to cover; a digest that stops exercising its path pins nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "exec/testbed.h"
#include "faults/fault_plan.h"

namespace dyrs::exec {
namespace {

constexpr std::size_t kJobs = 15;
const NodeId kCrashNode(2);

/// 6 nodes x (2 map + 1 reduce) slots, one-second block reads.
TestbedConfig saturated_config(Scheme scheme = Scheme::Hdfs) {
  TestbedConfig c;
  c.num_nodes = 6;
  c.map_slots_per_node = 2;
  c.reduce_slots_per_node = 1;
  c.disk_bandwidth = mib_per_sec(64);
  c.seek_alpha = 0.0;
  c.block_size = mib(64);
  c.master.slave.heartbeat_interval = seconds(1);
  c.master.slave.reference_block = mib(64);
  c.scheme = scheme;
  return c;
}

/// 15 jobs of 3..20 blocks with two reducers each, submitted 0.5 s apart:
/// far more maps than the 12 map slots, so a backlog builds up.
void submit_jobs(Testbed& tb, SimDuration extra_lead = 0) {
  for (std::size_t i = 0; i < kJobs; ++i) {
    const std::string file = "/in" + std::to_string(i);
    tb.load_file(file, mib(64) * static_cast<Bytes>(3 + (i * 7) % 18));
    JobSpec spec;
    spec.name = "job" + std::to_string(i);
    spec.input_files = {file};
    spec.selectivity = 0.5;
    spec.num_reducers = 2;
    spec.platform_overhead = seconds(1);
    spec.extra_lead_time = extra_lead;
    spec.task_overhead = milliseconds(100);
    tb.submit_at(spec, milliseconds(500) * static_cast<SimDuration>(i));
  }
}

/// FNV-1a over each finished task's (job, task, phase, node, start time,
/// read medium, read source), in completion order.
std::uint64_t dispatch_digest(const Metrics& metrics) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TaskRecord& t : metrics.tasks()) {
    add(t.job.value());
    add(t.id.value());
    add(static_cast<std::uint64_t>(t.phase));
    add(t.node.value());
    add(static_cast<std::uint64_t>(t.started));
    add(static_cast<std::uint64_t>(t.medium));
    add(t.read_source.valid() ? t.read_source.value() : ~0ULL);
  }
  return h;
}

bool any_map(const Metrics& metrics, const auto& pred) {
  return std::any_of(metrics.tasks().begin(), metrics.tasks().end(), [&](const TaskRecord& t) {
    return t.phase == TaskPhase::Map && pred(t);
  });
}

TEST(DispatchGolden, HdfsSaturated) {
  Testbed tb(saturated_config());
  submit_jobs(tb);
  tb.run();
  ASSERT_EQ(tb.metrics().jobs().size(), kJobs);
  // The backlog drives the fallback pass: some map reads a remote replica.
  EXPECT_TRUE(any_map(tb.metrics(),
                      [](const TaskRecord& t) { return t.medium == dfs::ReadMedium::RemoteDisk; }));
  EXPECT_EQ(dispatch_digest(tb.metrics()), 0xc4a88fffdaa1f056ULL);
}

TEST(DispatchGolden, DyrsLeadTimeSteersPlacement) {
  Testbed tb(saturated_config(Scheme::Dyrs));
  submit_jobs(tb, seconds(10));
  tb.run();
  ASSERT_EQ(tb.metrics().jobs().size(), kJobs);
  // Memory replicas count as local: some map runs where its block is buffered.
  EXPECT_TRUE(any_map(tb.metrics(), [](const TaskRecord& t) {
    return t.medium == dfs::ReadMedium::LocalMemory;
  }));
  EXPECT_EQ(dispatch_digest(tb.metrics()), 0xbf6250ffbef3f38cULL);
}

TEST(DispatchGolden, DatanodeCrash) {
  Testbed tb(saturated_config());
  tb.install_fault_plan(faults::FaultPlan().crash_process(kCrashNode, seconds(5), seconds(15)));
  submit_jobs(tb);
  tb.run();
  ASSERT_EQ(tb.metrics().jobs().size(), kJobs);
  // The server stays up while its datanode is down: its slots still take
  // maps, none of them local.
  EXPECT_TRUE(any_map(tb.metrics(), [](const TaskRecord& t) {
    return t.node == kCrashNode && t.started >= seconds(5) && t.started < seconds(15);
  }));
  EXPECT_EQ(dispatch_digest(tb.metrics()), 0xfe079f14aab6c7faULL);
}

}  // namespace
}  // namespace dyrs::exec
