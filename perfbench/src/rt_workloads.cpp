// rt_backlog and rt_jobs: the real-threaded master (rt::RtMaster) with four
// worker-thread slaves, driven only through its public calls.
//
// rt_backlog is a closed loop: eight migrate() calls queue 8k tiny blocks
// on fast disks and the run drains to idle, so the exchange (pull, bind,
// settle) and the Algorithm 1 passes under the master mutex bound the
// drain rate, not the disks. rt_jobs is an open loop: one generator (the
// calling thread) submits small jobs on a seeded schedule at ~60% of the
// disks' nominal bandwidth, with one node at a quarter speed, and at each
// job's read deadline cancels the job's blocks (a hit is a missed read) and
// evicts it; a tenth of jobs are abandoned right after submission.
#include <sched.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "core/queue_depth.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace_analysis.h"
#include "obs/trace_invariants.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dyrs;
using namespace std::chrono_literals;

constexpr int kNodes = 4;

struct RtSpec {
  bool backlog = true;
  std::vector<Rate> bandwidth;  // per node
  std::vector<ReplayJob> jobs;
  std::vector<double> due_s;    // rt_jobs: submission time of each job
  double lead_s = 0;            // rt_jobs: read deadline after submission
};

constexpr double kAbandonAfterS = 0.002;  // rt_jobs: eviction of abandoned jobs

/// Default master options with one slave per node at the spec's bandwidth.
rt::RtMaster::Options master_options(const RtSpec& spec, obs::ObsContext obs) {
  rt::RtMaster::Options options;
  for (int n = 0; n < kNodes; ++n) {
    rt::RtSlave::Options slave;
    slave.node = NodeId(n);
    slave.disk_bandwidth = spec.bandwidth[n];
    options.slaves.push_back(slave);
  }
  options.obs = obs;
  return options;
}

std::vector<NodeId> three_of_four(Rng& rng) {
  const auto skip = rng.uniform_int(0, kNodes - 1);
  std::vector<NodeId> out;
  for (int n = 0; n < kNodes; ++n) {
    if (n != skip) out.push_back(NodeId(n));
  }
  return out;
}

/// Eight jobs of `total_blocks / 8` blocks of 4 KiB, every block on three
/// of the four 2 GiB/s nodes; the seed draws the replica sets. Equal jobs
/// keep the job-time percentiles a property of the drain rather than of
/// seeded job sizes.
RtSpec backlog_spec(std::uint64_t seed, int total_blocks) {
  RtSpec s;
  s.backlog = true;
  s.bandwidth.assign(kNodes, gib_per_sec(2));
  Rng rng(seed);
  std::int64_t next_block = 1;
  for (int j = 0; j < 8; ++j) {
    ReplayJob job{JobId(j + 1), {}, false};
    for (int b = 0; b < total_blocks / 8; ++b) {
      job.blocks.push_back({BlockId(next_block++), 4 * kKiB, three_of_four(rng), job.job});
    }
    s.jobs.push_back(std::move(job));
  }
  return s;
}

/// Jobs of 2-8 blocks (64 KiB) arriving every 1/`rate` seconds for
/// `span_s` seconds. Three nodes read 24 MiB/s and node 0 a quarter of
/// that: 150 jobs/s offers ~60% of the nominal 78 MiB/s. The seed draws job
/// sizes, replica sets and which jobs are abandoned.
RtSpec jobs_spec(std::uint64_t seed, double span_s, double rate, double lead_s) {
  RtSpec s;
  s.backlog = false;
  s.bandwidth = {mib_per_sec(6), mib_per_sec(24), mib_per_sec(24), mib_per_sec(24)};
  s.lead_s = lead_s;
  Rng rng(seed);
  std::int64_t next_block = 1;
  const int jobs = static_cast<int>(span_s * rate);
  // Exactly a tenth of the jobs, seeded which, are abandoned.
  std::vector<bool> abandoned(static_cast<std::size_t>(jobs), false);
  std::fill_n(abandoned.begin(), jobs / 10, true);
  std::shuffle(abandoned.begin(), abandoned.end(), rng.engine());
  for (int j = 0; j < jobs; ++j) {
    ReplayJob job{JobId(j + 1), {}, abandoned[static_cast<std::size_t>(j)]};
    const auto n = rng.uniform_int(2, 8);
    for (int b = 0; b < n; ++b) {
      job.blocks.push_back({BlockId(next_block++), 64 * kKiB, three_of_four(rng), job.job});
    }
    s.jobs.push_back(std::move(job));
    // The first 10 ms let the retargeter's first pass land before the load.
    s.due_s.push_back(0.01 + j / rate);
  }
  return s;
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns false if that failed.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return false;
}

/// Local queue capacity an RtSlave derives with default options (§III-B).
int derived_capacity(Rate bandwidth) {
  const rt::RtSlave::Options d;
  const auto block_time =
      static_cast<SimDuration>(static_cast<double>(d.reference_block) / bandwidth * 1e6);
  return core::QueueDepthPolicy{}.depth_for(
      std::chrono::duration_cast<std::chrono::microseconds>(d.heartbeat_interval).count(),
      block_time, d.drain_batch);
}

/// Records when each watched job's blocks have all settled, by polling the
/// master's lock-free completion count and reading per-job accounting only
/// when it moved.
class JobWatch {
 public:
  explicit JobWatch(const rt::RtMaster& master) : master_(master) {}
  void watch(JobId job, long blocks, Clock::time_point since) {
    watched_[job] = {blocks, since};
  }
  void unwatch(JobId job) { watched_.erase(job); }
  void poll() {
    const long c = master_.completed();
    if (c == last_ || watched_.empty()) return;
    last_ = c;
    const auto now = Clock::now();
    for (const auto& [job, n] : master_.completed_per_job()) {
      auto it = watched_.find(job);
      if (it == watched_.end() || n < it->second.blocks) continue;
      durations_.add(std::chrono::duration<double>(now - it->second.since).count());
      watched_.erase(it);
    }
  }
  bool idle() const { return watched_.empty(); }
  SampleSet& durations() { return durations_; }

 private:
  struct Entry {
    long blocks;
    Clock::time_point since;
  };
  const rt::RtMaster& master_;
  std::unordered_map<JobId, Entry> watched_;
  long last_ = -1;
  SampleSet durations_;
};

struct RtRep {
  double wall_s = 0;
  long blocks = 0;
  long completed = 0;
  Bytes bytes_completed = 0;
  Bytes covered_bytes = 0;  // rt_jobs: resident at their deadline
  Bytes deadline_bytes = 0;  // rt_jobs: submitted by non-abandoned jobs
  Bytes buffered_after = 0;  // still buffered after every job was evicted
  SampleSet job_s;
  std::int64_t pulls = 0;
  std::int64_t passes = 0;
  long failed = 0;
  std::vector<std::string> errors;
  // Traced repetition only.
  Report layers;
  std::vector<obs::TraceEvent> trace;
};

/// Drives one repetition on a fresh master. `layers` and `trace` are filled
/// on the traced repetition.
RtRep run_rep(const RtSpec& spec, bool traced, SpanLog& spans) {
  RtRep rep;
  const std::uint64_t rep_span = spans.open(traced ? "rt.rep.traced" : "rt.rep");
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  if (traced) tracer.set_sink(&sink);

  const std::uint64_t build_span = spans.open("rt.master.construct", rep_span);
  auto master = std::make_unique<rt::RtMaster>(
      master_options(spec, obs::ObsContext(&registry, traced ? &tracer : nullptr)));
  spans.close(build_span);

  SampleSet migrate_us, cancel_us, evict_us, late_ms;
  std::map<JobId, long> hits;  // rt_jobs: cancel() found the block (missed read)
  JobWatch watch(*master);
  const auto start = Clock::now();
  auto submit = [&](const ReplayJob& job) {
    const auto at = Clock::now();
    timed(spans, "rt.migrate", migrate_us, 1e6, [&] { master->migrate(job.blocks); });
    rep.blocks += static_cast<long>(job.blocks.size());
    if (!job.abandoned) watch.watch(job.job, static_cast<long>(job.blocks.size()), at);
  };
  auto evict = [&](JobId job) {
    timed(spans, "rt.evict_job", evict_us, 1e6, [&] { master->evict_job(job); });
  };

  if (spec.backlog) {
    for (const ReplayJob& job : spec.jobs) submit(job);
    const auto wait_span = spans.open("rt.wait_idle", rep_span);
    const auto give_up = start + 120s;
    while (!watch.idle() && Clock::now() < give_up) {
      std::this_thread::sleep_for(1ms);
      watch.poll();
    }
    const bool drained = master->wait_idle(std::chrono::duration_cast<std::chrono::milliseconds>(
        std::max(give_up - Clock::now(), Clock::duration(0))));
    spans.close(wait_span);
    rep.wall_s = seconds_since(start);
    if (!drained) rep.errors.push_back("wait_idle() did not drain");
  } else {
    // The open-loop schedule: submit, abandon 2 ms later for a seeded tenth
    // of jobs, otherwise cancel-then-evict at the read deadline.
    struct Action {
      double at;
      int kind;  // 0 submit, 1 abandon, 2 deadline
      std::size_t job;
    };
    std::vector<Action> actions;
    for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
      actions.push_back({spec.due_s[j], 0, j});
      actions.push_back(spec.jobs[j].abandoned
                            ? Action{spec.due_s[j] + kAbandonAfterS, 1, j}
                            : Action{spec.due_s[j] + spec.lead_s, 2, j});
    }
    std::stable_sort(actions.begin(), actions.end(),
                     [](const Action& a, const Action& b) { return a.at < b.at; });
    for (const Action& a : actions) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(a.at));
      // Sleep until the action is due, polling job completions meanwhile.
      for (auto now = Clock::now(); now < due; now = Clock::now()) {
        std::this_thread::sleep_until(std::min(due, now + 200us));
        watch.poll();
      }
      late_ms.add(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      const ReplayJob& job = spec.jobs[a.job];
      if (a.kind == 0) {
        submit(job);
      } else if (a.kind == 1) {
        evict(job.job);
      } else {
        watch.poll();
        watch.unwatch(job.job);
        for (const rt::RtBlock& b : job.blocks) {
          const bool hit =
              timed(spans, "rt.cancel", cancel_us, 1e6, [&] { return master->cancel(b.block); });
          rep.deadline_bytes += b.size;
          if (hit) {
            ++hits[job.job];
          } else {
            rep.covered_bytes += b.size;
          }
        }
        evict(job.job);
      }
    }
    const auto wait_span = spans.open("rt.wait_idle", rep_span);
    const bool drained = master->wait_idle(30s);
    spans.close(wait_span);
    rep.wall_s = seconds_since(start);
    if (!drained) rep.errors.push_back("wait_idle() did not drain after the last deadline");
  }
  if (spec.backlog) {
    for (const ReplayJob& job : spec.jobs) evict(job.job);
  }
  // Every job was evicted: whatever the slaves still buffer is state a
  // long-running master would never get back.
  for (int n = 0; n < kNodes; ++n) rep.buffered_after += master->slave(NodeId(n)).buffered_bytes();
  master->shutdown();

  // --- correctness ---------------------------------------------------------
  rep.completed = master->completed();
  const auto per_job = master->completed_per_job();
  const auto per_node = master->completed_per_node();
  const auto count = [&](const char* name) {
    const obs::Counter* c = registry.find_counter(name);
    return c == nullptr ? std::int64_t{0} : c->value();
  };
  const std::int64_t cancelled = count("rt.migrations.cancelled");
  if (master->requeued() != 0) rep.errors.push_back("migrations were requeued");
  if (rep.completed + cancelled != rep.blocks) {
    rep.errors.push_back("completed + cancelled != blocks submitted");
  }
  for (const ReplayJob& job : spec.jobs) {
    if (job.abandoned) continue;
    const auto it = per_job.find(job.job);
    const long done = it == per_job.end() ? 0 : it->second;
    const auto h = hits.find(job.job);
    const long missed = h == hits.end() ? 0 : h->second;
    // rt_backlog: every block completes. rt_jobs: every block of a kept job
    // either completed or was cancelled at its deadline.
    if (done + missed == static_cast<long>(job.blocks.size())) continue;
    if (spec.backlog) {
      rep.errors.push_back("per-job completion sums do not match");
    } else {
      ++rep.failed;
    }
  }
  if (spec.backlog) rep.failed = rep.blocks - rep.completed;
  // Blocks are equal-sized within a workload.
  rep.bytes_completed = rep.completed * spec.jobs.front().blocks.front().size;
  rep.job_s = watch.durations();
  rep.pulls = count("rt.pulls");
  rep.passes = count("rt.retarget.passes");
  spans.close(rep_span);
  if (!traced) return rep;

  // --- per-layer metrics (traced repetition) ------------------------------
  Report& L = rep.layers;
  SampleSet pull_us;
  for (int n = 0; n < kNodes; ++n) {
    const std::string name = "node" + std::to_string(n) + ".rt.pull_us";
    for (double s : registry.histogram(name).samples().samples()) pull_us.add(s);
  }
  L.add_percentiles("rt.pull_us", pull_us, 1.0, "us");
  L.add("rt.pulls", static_cast<double>(rep.pulls), "count");
  L.add("rt.retarget_passes", static_cast<double>(rep.passes), "count");
  L.add("rt.cancelled", static_cast<double>(cancelled), "count");
  L.add("rt.requeued", static_cast<double>(count("rt.migrations.requeued")), "count");
  L.add_percentiles("rt.migrate_call_us", migrate_us, 1.0, "us");
  L.add_percentiles("rt.cancel_call_us", cancel_us, 1.0, "us");
  L.add_percentiles("rt.evict_call_us", evict_us, 1.0, "us");
  const auto slow = per_node.find(NodeId(0));
  L.add("rt.slow_node_share",
        rep.completed > 0 && slow != per_node.end()
            ? static_cast<double>(slow->second) / static_cast<double>(rep.completed)
            : 0.0,
        "fraction", static_cast<std::size_t>(rep.completed));
  Rate total_bw = 0;
  for (Rate bw : spec.bandwidth) total_bw += bw;
  L.add("rt.disk_util", static_cast<double>(rep.bytes_completed) / (total_bw * rep.wall_s),
        "fraction");
  L.add("rt.buffered_mib_after_evict", static_cast<double>(rep.buffered_after) / kMiB, "MiB");
  L.add("rt.gen_late_ms_p99", late_ms.empty() ? 0.0 : late_ms.quantile(0.99), "ms",
        late_ms.count());
  L.add("rt.gen_late_ms_max", late_ms.empty() ? 0.0 : late_ms.max(), "ms", late_ms.count());

  rep.trace = sink.merge_thread_buffers();
  const obs::TraceReader reader(rep.trace);
  const obs::TraceAnalysis analysis(reader);
  SampleSet queue_wait = analysis.spans().queue_wait_s;
  SampleSet transfer = analysis.spans().transfer_s;
  L.add_percentiles("rt.queue_wait_ms", queue_wait, 1e3, "ms");
  L.add_percentiles("rt.transfer_ms", transfer, 1e3, "ms");
  long binds = 0;
  for (const obs::NodeTimeline& n : analysis.nodes()) binds += n.binds;
  L.add("rt.blocks_per_pull", rep.pulls > 0 ? static_cast<double>(binds) / rep.pulls : 0.0,
        "blocks", static_cast<std::size_t>(rep.pulls));
  for (int n = 0; n < kNodes; ++n) {
    long node_binds = 0;
    for (const obs::NodeTimeline& t : analysis.nodes()) {
      if (t.node == NodeId(n)) node_binds = t.binds;
    }
    L.add("rt.bind_share.node" + std::to_string(n),
          binds > 0 ? static_cast<double>(node_binds) / static_cast<double>(binds) : 0.0,
          "fraction", static_cast<std::size_t>(binds));
  }
  return rep;
}

}  // namespace

Outcome run_rt(const Args& args, Report& e2e, Report& layers, SpanLog& spans) {
  const bool backlog = args.workload == "rt_backlog";
  const auto make_spec = [&] {
    return backlog ? backlog_spec(args.seed, args.smoke ? 2'400 : 8'000)
                   : jobs_spec(args.seed, args.smoke ? 0.5 : 5.0, 150.0, args.rt_lead_ms / 1e3);
  };

  Outcome out;
  // The closed-loop drain is a chain of mutex and condition-variable
  // handoffs between the slaves' worker threads. Spread over the virtual
  // CPUs of a shared host, each handoff can wait for the hypervisor to wake
  // an idle CPU, so the drain measured the host's load more than the
  // exchange. On 4 vCPUs, runs took ~1.5x as long as one-CPU runs
  // interleaved with them, and ten seeds spread by 22-26% (quartile
  // distance over median) against 9-10% on one CPU. On one CPU the
  // exchange's own work bounds the drain.
  if (backlog && !pin_to_one_cpu()) out.error("could not confine rt_backlog to one CPU");

  SampleSet generate_ms;
  std::vector<double> setup;
  const RtSpec spec = timed(spans, "wl.generate", generate_ms, 1e3, make_spec);

  std::vector<RtRep> reps;
  const auto t0 = Clock::now();
  double peak_rss = 0;
  do {
    reps.push_back(run_rep(spec, /*traced=*/false, spans));
    if (reps.size() == 1) peak_rss = peak_rss_mib();
    // Set-up is cheap here, so it is sampled on its own: generate the
    // inputs and construct (then stop) a master, a few times after every
    // repetition, once the first one's peak RSS is read. Taken back to back
    // at the end of a run, the samples all saw the host's speed of that
    // moment, and run medians split into two modes 1.5x apart.
    for (int i = 0; i < 5; ++i) {
      const auto s0 = Clock::now();
      const RtSpec sample = timed(spans, "wl.generate", generate_ms, 1e3, make_spec);
      rt::RtMaster master(master_options(sample, {}));
      setup.push_back(seconds_since(s0));
      master.shutdown();
    }
  } while (another_rep(t0, reps.size(), args));

  RtRep traced;
  if (args.trace) traced = run_rep(spec, /*traced=*/true, spans);

  // Host times are the best over untraced repetitions, since the host's
  // other tenants only ever slow a repetition down: the fastest repetition,
  // and on the closed loop each job-duration percentile's lowest per
  // repetition. On the open loop the schedule fixes a repetition's length,
  // so job durations pool every repetition, as byte counts do on both loops.
  const RtRep& best = *std::min_element(
      reps.begin(), reps.end(), [](const RtRep& a, const RtRep& b) { return a.wall_s < b.wall_s; });
  SampleSet pooled;
  std::vector<double> rep_p50, rep_p99;
  Bytes covered = 0, deadline = 0, done_bytes = 0;
  for (const RtRep& r : reps) {
    SampleSet jobs = r.job_s;
    if (!jobs.empty()) {
      rep_p50.push_back(jobs.quantile(0.5));
      rep_p99.push_back(jobs.quantile(0.99));
    }
    for (double d : jobs.samples()) pooled.add(d);
    covered += r.covered_bytes;
    deadline += r.deadline_bytes;
    done_bytes += r.bytes_completed;
  }
  Bytes submitted_bytes = 0;
  for (const ReplayJob& j : spec.jobs) {
    for (const rt::RtBlock& b : j.blocks) submitted_bytes += b.size;
  }
  submitted_bytes *= static_cast<Bytes>(reps.size());
  std::vector<RtRep*> all;
  for (RtRep& r : reps) all.push_back(&r);
  if (args.trace) all.push_back(&traced);
  for (RtRep* r : all) {
    // Operations: blocks on rt_backlog, jobs on rt_jobs.
    out.attempted += backlog ? r->blocks : static_cast<long>(spec.jobs.size());
    out.failed += r->failed;
    for (std::string& e : r->errors) out.error(std::move(e));
  }
  const double wall_s = best.wall_s;

  std::cout << "workload " << args.workload << ": " << spec.jobs.size() << " jobs, "
            << reps.front().blocks << " blocks per repetition, " << all.size()
            << " repetitions\nrun seconds:";
  for (const RtRep* r : all) std::cout << " " << r->wall_s;
  std::cout << (args.trace ? " (last traced)\n" : "\n");

  e2e.add("setup_s", median(setup), "s", setup.size());
  e2e.add("peak_rss_mb", peak_rss, "MiB");
  e2e.add("sim_wall_s", wall_s, "s", reps.size());
  if (backlog) {
    const auto lowest = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    };
    e2e.add("sim_job_s_p50", lowest(rep_p50), "s", best.job_s.count());
    e2e.add("sim_job_s_p99", lowest(rep_p99), "s", best.job_s.count());
  } else {
    e2e.add_percentiles("sim_job_s", pooled, 1.0, "s");
  }
  e2e.add("rt_drain_blocks_per_s", static_cast<double>(best.completed) / wall_s, "blocks/s",
          reps.size());
  e2e.add("rt_coverage",
          backlog ? static_cast<double>(done_bytes) / static_cast<double>(submitted_bytes)
                  : (deadline > 0 ? static_cast<double>(covered) / static_cast<double>(deadline)
                                  : 0.0),
          "fraction", reps.size());
  if (!args.trace) return out;

  for (const Metric& m : traced.layers.metrics()) layers.add(m.name, m.value, m.unit, m.samples);
  layers.add("wl.generate_ms", generate_ms.quantile(0.5), "ms", generate_ms.count());
  layers.add("obs.trace_events", static_cast<double>(traced.trace.size()), "count");
  layers.add("obs.trace_overhead_frac", wall_s > 0 ? traced.wall_s / wall_s - 1.0 : 0.0,
             "fraction", reps.size());
  layers.add("obs.ns_per_trace_event",
             traced.trace.empty() ? 0.0 : (traced.wall_s - wall_s) / traced.trace.size() * 1e9,
             "ns", traced.trace.size());

  // Oracles on the merged trace: the strict-open rt profile must hold; the
  // chronological Algorithm 1 replay at a 0.75 margin is reported only.
  obs::TraceInvariants strict;
  strict.profile = obs::TraceInvariants::Profile::Rt;
  strict.flag_open_lifecycles = true;
  const obs::InvariantReport verdict = strict.check(obs::TraceReader(traced.trace));
  layers.add("obs.invariant_violations", static_cast<double>(verdict.violations.size()),
             "count");
  std::cout << "trace invariants (rt profile, strict open): " << verdict.summary() << "\n";
  if (!verdict.ok()) out.error("trace invariant violations: " + verdict.summary());

  std::vector<obs::TraceEvent> chrono = traced.trace;
  std::stable_sort(chrono.begin(), chrono.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) { return a.at < b.at; });
  obs::TraceInvariants policy;
  policy.profile = obs::TraceInvariants::Profile::Rt;
  policy.check_policy = true;
  policy.policy_margin = 0.75;
  policy.policy_reference_block = rt::RtSlave::Options{}.reference_block;
  policy.max_violations = static_cast<std::size_t>(-1);
  const obs::InvariantReport flags = policy.check(obs::TraceReader(std::move(chrono)));
  long policy_flags = 0;
  for (const obs::InvariantViolation& v : flags.violations) policy_flags += v.rule == "policy";
  layers.add("core.policy_flags", static_cast<double>(policy_flags), "count",
             flags.policy_checked);

  // Control-plane self time: the same operations against a standalone
  // core::ControlPlane with the master's configuration.
  ReplayInput replay;
  replay.jobs = spec.jobs;
  if (!backlog) {
    replay.due_s = spec.due_s;
    replay.lead_s = spec.lead_s;
    replay.abandon_s = kAbandonAfterS;
  }
  std::int64_t pulls = 0, passes = 0;
  for (const RtRep& r : reps) {
    pulls += r.pulls;
    passes += r.passes;
  }
  for (Rate bw : spec.bandwidth) {
    replay.sec_per_byte.push_back(1.0 / bw);
    replay.slots.push_back(derived_capacity(bw));
  }
  replay.passes_per_pull = pulls > 0 ? static_cast<double>(passes) / pulls : 0.0;
  replay.pulls_per_job =
      static_cast<double>(pulls) / static_cast<double>(reps.size() * spec.jobs.size());
  replay_control_plane(replay, layers, spans);
  return out;
}

}  // namespace perfbench
