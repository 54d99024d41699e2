// micro_rt_throughput — sustained drain throughput of the rt exchange.
//
// Drains a backlog of small blocks through the exchange at two slave drain
// cadences and reports sustained blocks/s plus the p99 slave pull latency:
//
//   per-block   drain_batch 1  — one token-bucket read call and one
//               completion report per block, the default
//   batched     drain_batch 16 — up to 16 blocks per read call and per
//               coalesced completion report
//
// swept over slave count x local queue depth, each configuration reported
// as the fastest of five drains. Settlement is the same in both: striped
// over shard locks, never the master mutex. Blocks are deliberately tiny
// (4 KiB at 2 GiB/s, ~2us of token time) so the exchange — not the disk —
// is the bottleneck, which is exactly the regime where HDFS-scale
// cold-data backlogs (millions of blocks, §V) stress a master.
// The retarget interval is set beyond the run length so Algorithm 1 passes
// do not perturb the measurement: pull-is-the-bind does all the targeting.
//
// Both cadences are observationally equivalent
// (tests/rt/rt_batch_equivalence_test); this bench quantifies what
// batching buys. Results go to stdout and BENCH_rt_throughput.json.
//
//   micro_rt_throughput [--trace FILE]   also run one small traced config
//                                        (batches of 8) and write its
//                                        merged JSONL to FILE — CI runs
//                                        this twice and diffs `dyrsctl
//                                        trace --span-seq`, proving
//                                        batched drains keep the
//                                        determinism contract.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common/bench_util.h"
#include "common/summary.h"
#include "common/table.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "rt/master.h"

using namespace dyrs;
using namespace std::chrono_literals;

namespace {

using clock_type = std::chrono::steady_clock;

struct ModeSpec {
  const char* name;
  int drain_batch;
};

struct Result {
  double wall_s = 0;
  double blocks_per_s = 0;
  double p99_pull_us = 0;
  bool drained = false;
};

/// Drains `blocks` 4 KiB migrations (every node a replica, so targeting
/// never starves a slave) at one drain cadence and measures wall time from
/// migrate() to idle.
Result run(const ModeSpec& mode, int slaves, int depth, int blocks) {
  obs::MetricsRegistry registry;

  rt::RtMaster::Options options;
  for (int n = 0; n < slaves; ++n) {
    rt::RtSlave::Options slave;
    slave.node = NodeId(n);
    slave.disk_bandwidth = mib_per_sec(2048);
    slave.queue_capacity = depth;
    slave.heartbeat_interval = 5ms;
    slave.reference_block = 64 * kKiB;
    slave.drain_batch = mode.drain_batch;
    options.slaves.push_back(slave);
  }
  options.retarget_interval = 10min;  // no mid-run Algorithm 1 passes
  options.obs = obs::ObsContext(&registry, nullptr);
  rt::RtMaster master(std::move(options));

  std::vector<NodeId> everywhere;
  for (int n = 0; n < slaves; ++n) everywhere.push_back(NodeId(n));
  std::vector<rt::RtBlock> work;
  work.reserve(blocks);
  for (int i = 0; i < blocks; ++i) {
    work.push_back({BlockId(i), 4 * kKiB, everywhere, JobId(1)});
  }

  const auto t0 = clock_type::now();
  master.migrate(work);
  Result out;
  out.drained = master.wait_idle(120s) && master.completed() == blocks;
  out.wall_s = std::chrono::duration<double>(clock_type::now() - t0).count();
  master.shutdown();

  out.blocks_per_s = out.drained ? blocks / out.wall_s : 0;
  SampleSet pulls;
  for (int n = 0; n < slaves; ++n) {
    const std::string name = "node" + std::to_string(n) + ".rt.pull_us";
    if (registry.find_histogram(name) == nullptr) continue;
    for (double s : registry.histogram(name).samples().samples()) pulls.add(s);
  }
  if (!pulls.empty()) out.p99_pull_us = pulls.quantile(0.99);
  return out;
}

/// One small traced run with batched drains, written as merged JSONL for
/// `dyrsctl trace`. Deterministic by the equivalence-test recipe:
/// a single Algorithm 1 pass against the cold-estimator snapshot (migrate()'s
/// own; the retargeter's first pass is an interval away) makes the
/// bindings a pure policy outcome, so two invocations of this binary must
/// produce byte-identical `--span-seq` output.
void write_trace(const std::string& path) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);

  rt::RtMaster::Options options;
  for (int n = 0; n < 4; ++n) {
    rt::RtSlave::Options slave;
    slave.node = NodeId(n);
    slave.disk_bandwidth = mib_per_sec(64);
    slave.queue_capacity = 4;
    slave.reference_block = mib(1);
    slave.drain_batch = 8;
    options.slaves.push_back(slave);
  }
  options.retarget_interval = 60s;
  options.obs = obs::ObsContext(&registry, &tracer);
  rt::RtMaster master(std::move(options));

  // Single-replica blocks, like rt_soak's: the schedule is then a forced
  // policy outcome, so the span sequence cannot depend on timing and the
  // chronological policy oracle holds at any margin.
  std::vector<rt::RtBlock> blocks;
  for (int i = 0; i < 24; ++i) {
    rt::RtBlock b;
    b.block = BlockId(i);
    b.size = kKiB * (64ULL << (i % 3));
    b.replicas = {NodeId(i % 4)};
    b.job = JobId(1 + i % 2);
    blocks.push_back(std::move(b));
  }

  master.migrate(blocks);
  if (!master.wait_idle(30s)) {
    std::cerr << "traced run did not drain\n";
    std::exit(1);
  }
  master.shutdown();
  sink.write_jsonl(path);
  std::cout << "wrote " << path << " (" << sink.merge_thread_buffers().size() << " events)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: micro_rt_throughput [--trace FILE]\n";
      return 2;
    }
  }

  bench::print_header("micro: rt exchange sustained throughput",
                      "batched drains vs the per-block cadence");

  const int blocks = bench::smoke_scaled(24'000, 2'400);
  const ModeSpec modes[] = {{"per-block", 1}, {"batched", 16}};
  const int slave_counts[] = {4, 8, 16};
  const int depths[] = {8, 32};

  // The fastest of five drains per configuration, the two modes taking
  // turns drain by drain: the host's other tenants only ever slow a drain
  // down, a smoke-scale drain lasts 10-40 ms, where one descheduled worker
  // can halve its rate, and side-by-side drains see the same host.
  Result best[2][3][2];  // mode x slave count x depth
  bool all_drained = true;
  for (int si = 0; si < 3; ++si) {
    for (int di = 0; di < 2; ++di) {
      for (int rep = 0; rep < 5; ++rep) {
        for (int mi = 0; mi < 2; ++mi) {
          const Result one = run(modes[mi], slave_counts[si], depths[di], blocks);
          all_drained = all_drained && one.drained;
          if (one.blocks_per_s >= best[mi][si][di].blocks_per_s) best[mi][si][di] = one;
        }
      }
    }
  }

  TextTable table({"mode", "slaves", "depth", "wall s", "blocks/s", "p99 pull us"});
  std::ofstream json("BENCH_rt_throughput.json");
  json << "{\"bench\":\"rt_throughput\",\"smoke\":" << (bench::smoke_mode() ? "true" : "false")
       << ",\"blocks\":" << blocks << ",\"rows\":[";
  bool first_row = true;
  for (int mi = 0; mi < 2; ++mi) {
    for (int si = 0; si < 3; ++si) {
      for (int di = 0; di < 2; ++di) {
        const Result& r = best[mi][si][di];
        table.add_row({modes[mi].name, std::to_string(slave_counts[si]),
                       std::to_string(depths[di]), TextTable::num(r.wall_s, 3),
                       TextTable::num(r.blocks_per_s, 0), TextTable::num(r.p99_pull_us, 1)});
        json << (first_row ? "" : ",") << "{\"mode\":\"" << modes[mi].name
             << "\",\"slaves\":" << slave_counts[si] << ",\"depth\":" << depths[di]
             << ",\"blocks\":" << blocks << ",\"wall_s\":" << r.wall_s
             << ",\"blocks_per_s\":" << r.blocks_per_s << ",\"p99_pull_us\":" << r.p99_pull_us
             << "}";
        first_row = false;
      }
    }
  }
  // 16 slaves, depth 32.
  const double one_16 = best[0][2][1].blocks_per_s;
  const double bat_16 = best[1][2][1].blocks_per_s;
  const double speedup_batched = one_16 > 0 ? bat_16 / one_16 : 0;
  json << "],\"speedup_batched_16\":" << speedup_batched << "}\n";

  table.print(std::cout);
  std::cout << "\n(" << blocks << " x 4KiB blocks per configuration; speedup at 16 slaves, "
            << "depth 32:\n batched " << TextTable::num(speedup_batched, 2)
            << "x over the per-block cadence)\n\n";
  bench::maybe_dump_csv("micro_rt_throughput", table);
  std::cout << "wrote BENCH_rt_throughput.json\n\n";

  if (!trace_path.empty()) write_trace(trace_path);

  bench::print_shape_check(all_drained, "every configuration drained its full backlog");
  // Smoke backlogs are too small to saturate the exchange, so the smoke
  // bar only demands that batching wins; the full run enforces the
  // claimed margin.
  const double bar = bench::smoke_mode() ? 1.2 : 3.0;
  bench::print_shape_check(speedup_batched >= bar,
                           "batched drains >= " + TextTable::num(bar, 1) +
                               "x per-block blocks/s at 16 slaves (measured " +
                               TextTable::num(speedup_batched, 2) + "x)");
  return all_drained && speedup_batched >= bar ? 0 : 1;
}
