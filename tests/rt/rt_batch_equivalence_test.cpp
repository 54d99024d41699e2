// Property test: what the rt exchange decides and settles does not depend
// on how many migrations a slave's drain cycle carries.
//
// Each drain cycle reads and reports what the slave's queue holds. For 200
// seeded random schedules (node count, block count, sizes, replica sets and
// job assignment all drawn from the seed), the same workload runs with
// every slave at queue capacity 1 (one read call and one completion report
// per block) and at queue capacity 16 (up to 16 blocks per read call and
// report), and both must produce identical (a) per-block settlement
// projections (the `type@node` signature `dyrsctl trace --span-seq`
// prints), (b) per-node and per-job completion accounting, and (c)
// per-node binding-log projections. A single migrate() call with a long
// retarget interval pins the Algorithm 1 pass to the cold-estimator
// snapshot, so the decisions are a pure policy outcome — any divergence
// would be the exchange's fault, not timing's.
//
// The master has one settlement engine and slaves one data path, so this is
// an invariance property of the one exchange.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "rt/master.h"

namespace dyrs::rt {
namespace {

using namespace std::chrono_literals;

struct Schedule {
  int nodes = 0;
  std::vector<RtBlock> blocks;
};

/// Draws a workload from `seed`: 3-5 equal-bandwidth nodes, 8-24 blocks of
/// 64/128/256 KiB, 1-2 replicas each, spread over 1-3 jobs.
Schedule draw(std::uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  s.nodes = static_cast<int>(rng.uniform_int(3, 5));
  const int blocks = static_cast<int>(rng.uniform_int(8, 24));
  const int jobs = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < blocks; ++i) {
    RtBlock b;
    b.block = BlockId(i);
    b.size = kKiB * (64ULL << rng.uniform_int(0, 2));
    const int first = static_cast<int>(rng.uniform_int(0, s.nodes - 1));
    b.replicas.push_back(NodeId(first));
    if (rng.bernoulli(0.5)) b.replicas.push_back(NodeId((first + 1) % s.nodes));
    b.job = JobId(rng.uniform_int(1, jobs));
    s.blocks.push_back(std::move(b));
  }
  return s;
}

struct Outcome {
  std::map<std::int64_t, std::string> settlement;  // per-block type@node span
  std::map<NodeId, std::vector<BlockId>> bindings;
  long completed = 0;
  std::unordered_map<NodeId, long> per_node;
  std::unordered_map<JobId, long> per_job;
};

Outcome run(const Schedule& s, int queue_capacity) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);

  RtMaster::Options options;
  for (int n = 0; n < s.nodes; ++n) {
    RtSlave::Options slave;
    slave.node = NodeId(n);
    slave.disk_bandwidth = mib_per_sec(64);
    slave.queue_capacity = queue_capacity;
    slave.reference_block = mib(1);
    options.slaves.push_back(slave);
  }
  options.retarget_interval = 60s;  // only migrate()'s Algorithm 1 pass runs
  options.obs = obs::ObsContext(&registry, &tracer);
  RtMaster master(std::move(options));
  master.migrate(s.blocks);
  EXPECT_TRUE(master.wait_idle(30s));

  Outcome out;
  out.completed = master.completed();
  out.per_node = master.completed_per_node();
  out.per_job = master.completed_per_job();
  for (const auto& [block, node] : master.binding_log()) out.bindings[node].push_back(block);
  master.shutdown();  // quiesce emitters before reading buffers

  for (const obs::TraceEvent& e : sink.merge_thread_buffers()) {
    if (e.type.rfind("mig_", 0) != 0) continue;
    const std::int64_t block = e.i64("block");
    if (block < 0) continue;
    std::string& line = out.settlement[block];
    if (!line.empty()) line += ' ';
    line += e.type;
    const std::int64_t node = e.i64("node");
    if (node >= 0) {
      line += '@';
      line += std::to_string(node);
    }
  }
  return out;
}

TEST(RtBatchEquivalence, TwoHundredSeededSchedules) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Schedule s = draw(seed);
    const Outcome one = run(s, 1);
    const Outcome deep = run(s, 16);

    ASSERT_EQ(one.completed, static_cast<long>(s.blocks.size())) << "seed " << seed;
    EXPECT_EQ(one.settlement, deep.settlement) << "seed " << seed;
    EXPECT_EQ(one.bindings, deep.bindings) << "seed " << seed;
    EXPECT_EQ(one.completed, deep.completed) << "seed " << seed;
    EXPECT_EQ(one.per_node, deep.per_node) << "seed " << seed;
    EXPECT_EQ(one.per_job, deep.per_job) << "seed " << seed;
    if (::testing::Test::HasFailure()) break;  // one seed's dump is enough
  }
}

}  // namespace
}  // namespace dyrs::rt
