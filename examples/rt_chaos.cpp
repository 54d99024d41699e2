// rt_chaos — seeded, self-checking chaos soak for the rt failure surface.
//
// Drives one RtMaster (failure detection on, tracing on) through four
// fault phases, each executed by an RtFaultInjector from a scripted
// wall-clock FaultPlan:
//
//   A  crash failover — dual-replica blocks deterministically bind the
//      idle node 2, a process crash abandons them mid-transfer, the
//      detector declares the node dead and requeues them to the survivor
//      replica with node 2 on the avoid list; the node rejoins on restart.
//   B  probabilistic I/O-error windows plus a disk degradation — every
//      block still settles on its home node through local retries.
//   C  heartbeat partition — the bound slave keeps transferring but goes
//      silent; its binding is reclaimed, its zombie completion suppressed,
//      and the survivor owns the migration.
//   D  rejoin proof — fresh work pinned to the twice-recovered node.
//
// The scenario runs twice with the same seed; the run is judged on its
// *settlement projection* (per-block mig_enqueue / target / bind /
// complete / abort / requeue signature — transfer and retry events are
// timing-dependent attempt counts and excluded). Exits 0 only if both
// runs' projections are identical, every phase met its completion
// contract, at least 4 migrations were requeued by declared-dead
// reclaims, and run 2's merged trace passes the rt-faults invariant
// profile with open-lifecycle flagging on.
//
//   rt_chaos [--seed N] [--trace FILE] [--spans FILE]
//     --trace       write run 2's merged JSONL trace to FILE
//     --spans       write run 2's settlement projection to FILE (one
//                   "block: span" line per block; CI diffs two same-seed
//                   runs)
//
// Each slave holds 3 migrations and reads and reports them in one drain
// cycle, so completions of several members race the phase A/C reclaim
// windows and must still settle exactly once per member.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "faults/rt_fault_injector.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "rt/master.h"

using namespace dyrs;
using namespace std::chrono_literals;

namespace {

void fail(const std::string& message) {
  std::cerr << "FAIL: " << message << "\n";
  std::exit(1);
}

void require(bool ok, const std::string& message) {
  if (!ok) fail(message);
}

/// Polls the failure detector until `node` reaches `want`.
void await_state(rt::RtMaster& master, NodeId node, rt::RtMaster::NodeState want,
                 const std::string& what) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (master.node_state(node) == want) return;
    std::this_thread::sleep_for(2ms);
  }
  fail("timed out waiting for " + what);
}

std::vector<rt::RtBlock> single_replica(int first_id, int count, int node, Bytes size,
                                        JobId job) {
  std::vector<rt::RtBlock> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({BlockId(first_id + i), size, {NodeId(node)}, job});
  }
  return out;
}

/// One full chaos scenario; returns the merged trace of all four phases.
std::vector<obs::TraceEvent> run_once(std::uint64_t seed, obs::ThreadLocalBufferSink& sink) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  tracer.set_sink(&sink);

  rt::RtMaster::Options options;
  for (int n = 0; n < 3; ++n) {
    rt::RtSlave::Options slave;
    slave.node = NodeId(n);
    slave.disk_bandwidth = mib_per_sec(64);
    slave.queue_capacity = 3;
    slave.reference_block = mib(1);
    slave.heartbeat_interval = 5ms;
    options.slaves.push_back(slave);
  }
  options.retarget_interval = 2ms;
  // Generous local budget for phase B's error windows: with rates <= 0.4
  // the chance of ever exhausting 50 attempts is negligible, so every
  // block's settlement is independent of the error rolls.
  options.retry = {.max_attempts = 50, .backoff = milliseconds(1),
                   .backoff_cap = milliseconds(4)};
  options.failure_detection.enabled = true;
  options.failure_detection.monitor_interval = 5ms;
  options.failure_detection.suspect_after = 60ms;
  options.failure_detection.declare_dead_after = 150ms;
  options.obs = obs::ObsContext(&registry, &tracer);
  rt::RtMaster master(std::move(options));

  // --- Phase A: crash failover -----------------------------------------
  // Nodes 0/1 carry deep single-replica backlogs (~375ms each), so the
  // Algorithm 1 cumulative assignment sends dual blocks 400/401/403 to the
  // idle node 2 and 402 behind node 0's backlog; node 2 holds all three
  // (its queue capacity) when the crash lands at 70ms — long before its
  // first 16MiB read could finish at ~250ms. The declared-dead reclaim
  // requeues all three to node 0 (the only non-avoided replica); the
  // restart at 1.8s is past the drain, so nothing can retarget back.
  {
    std::vector<rt::RtBlock> blocks = single_replica(0, 24, 0, mib(1), JobId(1));
    auto on1 = single_replica(100, 24, 1, mib(1), JobId(1));
    blocks.insert(blocks.end(), on1.begin(), on1.end());
    for (int i = 0; i < 4; ++i) {
      blocks.push_back({BlockId(400 + i), mib(16), {NodeId(2), NodeId(0)}, JobId(2)});
    }

    faults::RtFaultInjector injector(master, seed);
    faults::FaultPlan plan;
    plan.crash_process(NodeId(2), milliseconds(70), milliseconds(1800));
    injector.install(plan);
    master.migrate(blocks);

    await_state(master, NodeId(2), rt::RtMaster::NodeState::Dead, "phase A declared-dead");
    require(master.wait_idle(60s), "phase A did not drain");
    require(master.completed() == 52, "phase A expected 52 completions, got " + std::to_string(master.completed()));
    require(master.completed_per_node()[NodeId(2)] == 0,
            "phase A: the crashed node must not own a completion");
    require(master.requeued() >= 3, "phase A expected >= 3 declared-dead requeues");
    require(injector.wait_done(30000ms), "phase A timeline did not finish");
    await_state(master, NodeId(2), rt::RtMaster::NodeState::Alive, "phase A rejoin");
  }

  // --- Phase B: I/O-error windows + disk degradation -------------------
  // Single-replica blocks round-robined over all three nodes; errors are
  // absorbed by local retries and the degradation only stretches wall
  // clocks, so settlement is complete@home for every block.
  {
    faults::RtFaultInjector injector(master, seed + 1);
    faults::FaultPlan plan;
    plan.io_errors(NodeId(0), 0, milliseconds(600), 0.4);
    plan.io_errors(NodeId(1), milliseconds(50), milliseconds(500), 0.3);
    plan.degrade_disk(NodeId(1), 0, milliseconds(400), 0.25);
    injector.install(plan);

    std::vector<rt::RtBlock> blocks;
    for (int i = 0; i < 12; ++i) {
      blocks.push_back({BlockId(700 + i), mib(1), {NodeId(i % 3)}, JobId(3)});
    }
    const long before = master.completed();
    master.migrate(blocks);
    require(master.wait_idle(60s), "phase B did not drain");
    require(master.completed() == before + 12, "phase B expected 12 completions, got " + std::to_string(master.completed() - before));
    require(injector.wait_done(30000ms), "phase B timeline did not finish");
  }

  // --- Phase C: partition, zombie suppression --------------------------
  // The 32MiB dual block binds the idle node 2 (~500ms read); the
  // partition at 50ms silences its heartbeats, the node is declared dead
  // at ~200ms and the block requeued to node 0. The partitioned slave
  // finishes its read anyway — a zombie completion the bound registry
  // drops. Healing at 900ms re-admits the node.
  {
    faults::RtFaultInjector injector(master, seed + 2);
    faults::FaultPlan plan;
    plan.partition(NodeId(2), milliseconds(50), milliseconds(900));
    injector.install(plan);

    std::vector<rt::RtBlock> blocks = single_replica(800, 12, 0, mib(1), JobId(4));
    blocks.push_back({BlockId(900), mib(32), {NodeId(2), NodeId(0)}, JobId(4)});
    const long before = master.completed();
    const long requeued_before = master.requeued();
    master.migrate(blocks);

    await_state(master, NodeId(2), rt::RtMaster::NodeState::Dead, "phase C declared-dead");
    require(master.slave(NodeId(2)).running(), "phase C: partitioned daemon must stay up");
    require(master.wait_idle(60s), "phase C did not drain");
    require(master.completed() == before + 13, "phase C expected 13 completions, got " + std::to_string(master.completed() - before));
    require(master.requeued() >= requeued_before + 1, "phase C expected a reclaim requeue");
    require(injector.wait_done(30000ms), "phase C timeline did not finish");
    await_state(master, NodeId(2), rt::RtMaster::NodeState::Alive, "phase C rejoin");
  }

  // --- Phase D: the twice-recovered node serves again -------------------
  {
    const long before = master.completed_per_node()[NodeId(2)];
    master.migrate(single_replica(950, 2, 2, mib(1), JobId(5)));
    require(master.wait_idle(60s), "phase D did not drain");
    require(master.completed_per_node()[NodeId(2)] == before + 2,
            "phase D: rejoined node must serve new work");
  }

  require(master.requeued() >= 4, "expected >= 4 declared-dead requeues overall");
  master.shutdown();  // quiesce every emitter before reading the buffers
  return sink.merge_thread_buffers();
}

/// Settlement projection: per-block `type@node` signature over the
/// run-stable lifecycle events only. Transfer starts and retries are
/// attempt counts — timing- and roll-dependent — and excluded.
std::map<std::int64_t, std::string> settlement(const std::vector<obs::TraceEvent>& events) {
  std::map<std::int64_t, std::string> per_block;
  for (const obs::TraceEvent& e : events) {
    if (e.type != "mig_enqueue" && e.type != "mig_target" && e.type != "mig_bind" &&
        e.type != "mig_complete" && e.type != "mig_abort" && e.type != "mig_requeue") {
      continue;
    }
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
  std::uint64_t seed = 1;
  std::string trace_path;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--spans") && i + 1 < argc) {
      spans_path = argv[++i];
    } else {
      std::cerr << "usage: rt_chaos [--seed N] [--trace FILE] [--spans FILE]\n";
      return 2;
    }
  }

  obs::ThreadLocalBufferSink sink1;
  obs::ThreadLocalBufferSink sink2;
  const std::vector<obs::TraceEvent> trace1 = run_once(seed, sink1);
  const std::vector<obs::TraceEvent> trace2 = run_once(seed, sink2);

  const auto set1 = settlement(trace1);
  const auto set2 = settlement(trace2);
  bool identical = set1.size() == set2.size();
  for (const auto& [block, line] : set1) {
    auto it = set2.find(block);
    if (it != set2.end() && it->second == line) continue;
    identical = false;
    std::cerr << "block " << block << " diverged:\n  run1: " << line
              << "\n  run2: " << (it == set2.end() ? std::string("<missing>") : it->second)
              << "\n";
  }
  if (!identical) fail("settlement projections differ between same-seed runs");

  // The first crashed-and-reclaimed dual block carries the full failover
  // span: abandoned at node 2, requeued, settled on the survivor.
  const std::string failover =
      "mig_enqueue mig_target@2 mig_bind@2 mig_abort@2 "
      "mig_enqueue mig_requeue mig_target@0 mig_bind@0 mig_complete@0";
  if (set1.at(400) != failover) {
    fail("block 400 failover span mismatch:\n  want: " + failover + "\n  got:  " + set1.at(400));
  }

  obs::TraceInvariants oracle;
  oracle.profile = obs::TraceInvariants::Profile::RtFaults;
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

  // write_jsonl DYRS_CHECKs the open itself, so a bad --trace path fails
  // loudly; the spans stream needs its own check.
  if (!trace_path.empty()) sink2.write_jsonl(trace_path);
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (const auto& [block, line] : set2) out << block << ": " << line << "\n";
    if (!out) {
      std::cerr << "rt_chaos: cannot write spans to " << spans_path << "\n";
      return 1;
    }
  }

  std::cout << "rt_chaos OK: seed " << seed << ", " << set1.size() << " blocks, " << trace2.size()
            << " events, identical settlement projections across 2 runs, rt-faults invariants "
            << report.summary() << " (" << report.lifecycles_closed << " lifecycles closed, "
            << report.zombie_events << " zombie events tolerated)\n";
  return 0;
}
