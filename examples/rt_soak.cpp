// rt_soak — self-checking determinism soak for the real-threaded runtime.
//
// Runs the same chaos/cancel scenario twice, merges each run's
// thread-local trace buffers, and diffs the per-block event signatures
// (type@node): exactly the projection the rt determinism contract promises
// to be identical across runs even though wall-clock interleavings differ.
// The second run's merged trace is also fed through the Rt-profile
// invariant oracle with open-lifecycle flagging on (every lifecycle must
// settle). Exits 0 only if both runs agree and the oracle passes.
//
//   rt_soak [--trace FILE]       also write run 2's merged JSONL to FILE
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "rt/master.h"

using namespace dyrs;
using namespace std::chrono_literals;

namespace {

constexpr int kFastBlocks = 24;  // round-robined over nodes 0/1
constexpr int kSlowBlocks = 8;   // pinned to node 2; 5 of them cancelled

/// One soak round: 3 slaves (node 2 crippled), 32 single-replica block
/// migrations, 5 missed-read cancellations racing the slow slave's pulls,
/// and a mid-run bandwidth degradation on node 0. Returns the merged trace.
std::vector<obs::TraceEvent> run_once(obs::ThreadLocalBufferSink& sink) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  tracer.set_sink(&sink);

  rt::RtMaster::Options options;
  for (int n = 0; n < 3; ++n) {
    rt::RtSlave::Options slave;
    slave.node = NodeId(n);
    slave.disk_bandwidth = n == 2 ? mib_per_sec(4) : mib_per_sec(256);
    slave.queue_capacity = 2;
    slave.reference_block = mib(1);
    options.slaves.push_back(slave);
  }
  options.retarget_interval = 2ms;
  options.obs = obs::ObsContext(&registry, &tracer);
  rt::RtMaster master(options);

  // Single-replica blocks make the schedule independent of timing: the
  // signature can only differ across runs if the merge key fails.
  std::vector<rt::RtBlock> blocks;
  for (int i = 0; i < kFastBlocks; ++i) {
    blocks.push_back({BlockId(i), 256 * kKiB, {NodeId(i % 2)}});
  }
  for (int i = 0; i < kSlowBlocks; ++i) {
    blocks.push_back({BlockId(100 + i), 256 * kKiB, {NodeId(2)}});
  }
  master.migrate(blocks);

  // Missed-read cancellations racing node 2's worker. The slave holds at
  // most 2 blocks this early (queue_capacity 2, pulled again only once it
  // holds nothing) and each takes 62.5ms at 4MiB/s, so blocks 103..107 are
  // deterministically still pending at the master and settle as node-less
  // aborts.
  for (int i = 3; i < kSlowBlocks; ++i) {
    if (!master.cancel(BlockId(100 + i))) {
      std::cerr << "cancel of block " << 100 + i << " found nothing\n";
      std::exit(1);
    }
  }

  // Timing-only chaos: node 0 degrades mid-run. With single-replica blocks
  // this stretches wall-clock interleavings without changing the schedule.
  std::jthread degrade([&master] {
    std::this_thread::sleep_for(5ms);
    master.slave(NodeId(0)).disk().set_nominal_bandwidth(mib_per_sec(64));
  });
  degrade.join();

  if (!master.wait_idle(30s)) {
    std::cerr << "soak run did not drain\n";
    std::exit(1);
  }
  const long expected = kFastBlocks + 3;
  if (master.completed() != expected) {
    std::cerr << "expected " << expected << " completions, got " << master.completed() << "\n";
    std::exit(1);
  }
  master.shutdown();  // quiesce every emitter before reading the buffers
  return sink.merge_thread_buffers();
}

/// Per-block `type@node` signature lines — mirrors `dyrsctl trace --span-seq`.
std::map<std::int64_t, std::string> signatures(const std::vector<obs::TraceEvent>& events) {
  std::map<std::int64_t, std::string> per_block;
  for (const obs::TraceEvent& e : events) {
    if (e.type.rfind("mig_", 0) != 0) continue;
    const std::int64_t block = e.i64("block");
    if (block < 0) continue;
    std::string& line = per_block[block];
    if (!line.empty()) line += ' ';
    line += e.type;
    const std::int64_t node = e.i64("node");
    if (node >= 0) {
      line += '@';
      line += std::to_string(node);
    }
  }
  return per_block;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: rt_soak [--trace FILE]\n";
      return 2;
    }
  }

  obs::ThreadLocalBufferSink sink1;
  obs::ThreadLocalBufferSink sink2;
  const std::vector<obs::TraceEvent> trace1 = run_once(sink1);
  const std::vector<obs::TraceEvent> trace2 = run_once(sink2);

  const auto sig1 = signatures(trace1);
  const auto sig2 = signatures(trace2);
  bool identical = sig1.size() == sig2.size();
  for (const auto& [block, line] : sig1) {
    auto it = sig2.find(block);
    if (it != sig2.end() && it->second == line) continue;
    identical = false;
    std::cerr << "block " << block << " diverged:\n  run1: " << line
              << "\n  run2: " << (it == sig2.end() ? std::string("<missing>") : it->second)
              << "\n";
  }
  if (!identical) {
    std::cerr << "FAIL: per-block signatures differ between runs\n";
    return 1;
  }

  obs::TraceInvariants oracle;
  oracle.profile = obs::TraceInvariants::Profile::Rt;
  oracle.flag_open_lifecycles = true;  // every lifecycle must have settled
  const obs::InvariantReport report = oracle.check(obs::TraceReader(trace2));
  if (!report.ok()) {
    std::cerr << "FAIL: invariants: " << report.summary() << "\n";
    for (const obs::InvariantViolation& v : report.violations) {
      std::cerr << "  [" << v.rule << "] event #" << v.event_index
                << " block=" << v.block.value() << " node=" << v.node.value() << ": " << v.detail
                << "\n";
    }
    return 1;
  }

  if (!trace_path.empty()) sink2.write_jsonl(trace_path);

  std::cout << "rt_soak OK: " << sig1.size() << " blocks, " << trace2.size()
            << " events, identical per-block signatures across 2 runs, rt invariants "
            << report.summary() << " (" << report.lifecycles_closed << " lifecycles closed)\n";
  return 0;
}
