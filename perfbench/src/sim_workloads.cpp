// sim_swim_scale and sim_paper_pressure: a SWIM stream under DYRS on the
// simulated testbed, driven through exec::Testbed and wl::SwimWorkload.
//
// Each repetition builds a fresh testbed (setup: construction, estimator
// warm-up, workload generation, dataset load and job install) and then
// times Testbed::run(). The modelled outcome of a seed is deterministic, so
// every repetition, traced or not, must reproduce the same digest.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <memory>

#include "exec/testbed.h"
#include "obs/trace_analysis.h"
#include "obs/trace_invariants.h"
#include "workloads.h"
#include "workloads/swim.h"

namespace perfbench {
namespace {

using namespace dyrs;

struct SimSpec {
  exec::TestbedConfig config;
  wl::SwimConfig swim;
  std::vector<NodeId> slow_nodes;
  Bytes warmup_bytes = gib(2);
  exec::JobSpec base;
  SimDuration time_cap = hours(72);  // past the workload start
};

/// The paper's testbed (§V-A): 7 datanodes, ~160 MiB/s HDDs, 128 GiB RAM,
/// 256 MiB blocks, 3-way replication, one map slot per hardware thread.
exec::TestbedConfig paper_testbed(std::uint64_t seed) {
  exec::TestbedConfig c;
  c.num_nodes = 7;
  c.disk_bandwidth = mib_per_sec(160);
  c.seek_alpha = 0.15;
  c.node_memory = gib(128);
  c.block_size = mib(256);
  c.replication = 3;
  c.placement_seed = seed;
  c.map_slots_per_node = 12;
  c.reduce_slots_per_node = 6;
  c.scheme = exec::Scheme::Dyrs;
  c.master.slave.heartbeat_interval = seconds(1);
  c.master.slave.reference_block = c.block_size;
  c.master.seed = seed + 17;
  return c;
}

exec::JobSpec swim_base() {
  exec::JobSpec base;
  base.selectivity = 0.1;  // overridden per job by explicit shuffle bytes
  base.platform_overhead = seconds(5);
  base.task_overhead = milliseconds(200);
  return base;
}

/// Table I's workload scaled by `k`: k x 7 nodes (every seventh slowed by
/// two dd-style readers), k x 200 jobs, k x 170 GiB, arrivals k times
/// denser, so the per-node load matches the paper's.
SimSpec swim_scale_spec(std::uint64_t seed, int k) {
  SimSpec s;
  s.config = paper_testbed(seed);
  s.config.num_nodes = 7 * k;
  s.swim.num_jobs = 200 * k;
  s.swim.total_input = gib(170) * k;
  s.swim.mean_interarrival_s = 40.0 / k;
  for (int n = 0; n < s.config.num_nodes; n += 7) s.slow_nodes.push_back(NodeId(n));
  s.warmup_bytes = gib(2) * k;
  s.base = swim_base();
  return s;
}

/// The unscaled paper testbed under memory pressure: a long SWIM stream,
/// a 2 GiB cap on migrated memory per node with cold-first demotion at
/// 0.85/0.60 watermarks, explicit eviction, and 3-way output replication so
/// writes share the disks with task reads, migrations and interference.
SimSpec paper_pressure_spec(std::uint64_t seed, int jobs) {
  SimSpec s;
  s.config = paper_testbed(seed);
  s.config.output_replication = 3;
  s.config.master.slave.memory_limit = gib(2);
  s.config.master.tier.high_watermark = 0.85;
  s.config.master.tier.low_watermark = 0.60;
  s.config.master.tier.on_pressure = core::TierPolicy::OnPressure::EvictColdFirst;
  s.swim.num_jobs = jobs;
  s.swim.total_input = gib(170) * jobs / 200;
  s.slow_nodes = {NodeId(0)};
  s.base = swim_base();
  s.base.eviction = core::EvictionMode::Explicit;
  return s;
}

std::int64_t counter(exec::Testbed& tb, const std::string& name) {
  const obs::Counter* c = tb.registry().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Histogram samples added after the first `skip` (the warm-up's).
SampleSet samples_after(exec::Testbed& tb, const std::string& name, std::size_t skip) {
  SampleSet out;
  const auto& all = tb.registry().histogram(name).samples().samples();
  for (std::size_t i = skip; i < all.size(); ++i) out.add(all[i]);
  return out;
}

const char* const kMigrationCounters[] = {"enqueued", "completed", "cancelled", "requeued",
                                          "demoted"};
const cluster::IoClass kIoClasses[] = {cluster::IoClass::MigrationRead,
                                       cluster::IoClass::TaskRead, cluster::IoClass::Write};
const char* const kIoClassNames[] = {"migration_read", "task_read", "write"};

struct SimRep {
  double setup_s = 0;
  double run_s = 0;
  std::size_t events = 0;
  long submitted = 0;
  long completed = 0;
  std::uint64_t digest = 0;
  SampleSet job_s;
  double memory_read_frac = 0;
  std::int64_t migrations_completed = 0;
  std::int64_t demotions = 0;
  // Traced repetition only.
  Report layers;
  std::size_t trace_events = 0;
  std::string invariants;
  std::size_t violations = 0;
};

/// One repetition: fresh testbed, setup, run. `layers` are collected only
/// on the traced repetition.
SimRep run_rep(const SimSpec& spec, bool traced, SpanLog& spans) {
  SimRep rep;
  const auto t0 = Clock::now();
  const std::uint64_t rep_span = spans.open(traced ? "sim.rep.traced" : "sim.rep");

  SampleSet generate_ms, warmup_ms, load_ms, run_s;
  const auto workload = timed(spans, "wl.generate", generate_ms, 1e3,
                              [&] { return wl::SwimWorkload::generate(spec.swim); });
  const std::uint64_t build_span = spans.open("exec.testbed.construct", rep_span);
  auto tb = std::make_unique<exec::Testbed>(spec.config);
  obs::MemorySink* sink = traced ? &tb->trace_to_memory() : nullptr;
  for (NodeId n : spec.slow_nodes) tb->add_persistent_interference(n, 2);
  spans.close(build_span);

  // Estimator warm-up: the paper's datanodes are long-running daemons whose
  // migration-time estimates are already warm when an experiment starts.
  timed(spans, "dyrs.warmup", warmup_ms, 1e3, [&] {
    const std::string scratch = "/__estimator_warmup";
    tb->load_file(scratch, spec.warmup_bytes);
    tb->master()->migrate_files(JobId(1'000'000'000), {scratch}, core::EvictionMode::Explicit);
    tb->simulator().run_until(tb->simulator().now() + seconds(60));
    tb->master()->evict_job(JobId(1'000'000'000));
    tb->remove_file(scratch);
  });

  // Everything the layer metrics report is a delta from the workload start.
  const SimTime start = tb->simulator().now();
  const std::vector<NodeId> nodes = tb->cluster().node_ids();
  std::int64_t mig0[5];
  for (int i = 0; i < 5; ++i) {
    mig0[i] = counter(*tb, std::string("dyrs.migrations.") + kMigrationCounters[i]);
  }
  const std::size_t wait0 = tb->registry().histogram("dyrs.migration.pending_wait_s").count();
  const std::size_t xfer0 = tb->registry().histogram("dyrs.migration.transfer_s").count();
  double busy0 = 0, io0[3] = {0, 0, 0};
  for (NodeId n : nodes) {
    const cluster::Disk& disk = tb->cluster().node(n).disk();
    busy0 += disk.busy_seconds();
    for (int c = 0; c < 3; ++c) io0[c] += disk.bytes_by_class(kIoClasses[c]);
  }

  // Install the jobs; load_file is timed on its own (dfs.load_ms).
  for (const wl::SwimJob& job : workload.jobs()) {
    timed(spans, "dfs.load_file", load_ms, 1e3, [&] { tb->load_file(job.file, job.input); });
    exec::JobSpec s = spec.base;
    s.name = job.name;
    s.input_files = {job.file};
    s.shuffle_bytes = job.shuffle;
    s.output_bytes = job.output;
    s.num_reducers = job.reducers;
    tb->submit_at(s, start + job.submit_at);
    ++rep.submitted;
  }
  rep.setup_s = seconds_since(t0);

  const std::size_t events0 = tb->simulator().events_executed();
  const SimTime end = timed(spans, "exec.testbed.run", run_s, 1.0,
                            [&] { return tb->run(start + spec.time_cap); });
  rep.run_s = run_s.samples().front();
  rep.events = tb->simulator().events_executed() - events0;

  const exec::Metrics& metrics = tb->metrics();
  rep.completed = static_cast<long>(metrics.jobs().size());
  rep.memory_read_frac = metrics.memory_read_fraction();
  rep.migrations_completed = counter(*tb, "dyrs.migrations.completed") - mig0[1];
  rep.demotions = counter(*tb, "dyrs.migrations.demoted") - mig0[4];
  Digest digest;
  for (const exec::JobRecord& j : metrics.jobs()) {
    rep.job_s.add(j.duration_s());
    digest.add(j.id.value());
    digest.add(static_cast<std::uint64_t>(j.submitted));
    digest.add(static_cast<std::uint64_t>(j.finished));
  }
  for (const exec::TaskRecord& t : metrics.tasks()) {
    digest.add(t.id.value());
    digest.add(static_cast<std::uint64_t>(t.medium));
    digest.add(t.read_source.valid() ? t.read_source.value() : ~0ULL);
  }
  rep.digest = digest.value();
  if (!traced) return rep;

  // --- per-layer metrics (traced repetition) ---------------------------
  Report& L = rep.layers;
  L.add("sim.events", static_cast<double>(rep.events), "count");
  L.add("exec.tasks", static_cast<double>(metrics.tasks().size()), "count");
  SampleSet slot_wait, map_read, lead;
  for (const exec::JobRecord& j : metrics.jobs()) {
    slot_wait.add(to_seconds(j.first_task_start - j.eligible));
    lead.add(j.lead_time_s());
  }
  for (const exec::TaskRecord& t : metrics.tasks()) {
    if (t.phase == exec::TaskPhase::Map) map_read.add(t.read_s());
  }
  L.add_percentiles("exec.slot_wait_s", slot_wait, 1.0, "s");
  L.add_percentiles("exec.map_read_s", map_read, 1.0, "s");
  L.add_percentiles("exec.lead_time_s", lead, 1.0, "s", /*p99=*/false);

  for (int m = 0; m < 4; ++m) {
    const std::string name =
        std::string("dfs.reads.") + dfs::to_string(static_cast<dfs::ReadMedium>(m));
    L.add(name, static_cast<double>(counter(*tb, name)), "count");
  }
  L.add("dfs.memory_read_frac", rep.memory_read_frac, "fraction", metrics.tasks().size());
  L.add("dfs.load_ms", load_ms.mean() * static_cast<double>(load_ms.count()), "ms",
        load_ms.count());

  const double makespan_s = to_seconds(end - start);
  double busy = 0, io[3] = {0, 0, 0};
  double peak_pinned = 0;
  for (NodeId n : nodes) {
    cluster::Node& node = tb->cluster().node(n);
    busy += node.disk().busy_seconds();
    for (int c = 0; c < 3; ++c) io[c] += node.disk().bytes_by_class(kIoClasses[c]);
    peak_pinned = std::max(peak_pinned, node.memory().usage_series().step_max(start, end + 1));
  }
  L.add("cluster.disk_busy_frac",
        makespan_s > 0 ? (busy - busy0) / (makespan_s * static_cast<double>(nodes.size())) : 0,
        "fraction", nodes.size());
  for (int c = 0; c < 3; ++c) {
    L.add(std::string("cluster.") + kIoClassNames[c] + "_gib", (io[c] - io0[c]) / kGiB, "GiB");
  }

  std::int64_t mig[5];
  for (int i = 0; i < 5; ++i) {
    mig[i] = counter(*tb, std::string("dyrs.migrations.") + kMigrationCounters[i]) - mig0[i];
  }
  for (int i = 0; i < 4; ++i) {
    L.add(std::string("dyrs.migrations.") + kMigrationCounters[i], static_cast<double>(mig[i]),
          "count");
  }
  L.add("dyrs.useful_frac",
        mig[1] + mig[2] > 0 ? static_cast<double>(mig[1]) / static_cast<double>(mig[1] + mig[2])
                            : 0.0,
        "fraction", static_cast<std::size_t>(mig[1] + mig[2]));
  L.add_percentiles("dyrs.pending_wait_s",
                    samples_after(*tb, "dyrs.migration.pending_wait_s", wait0), 1.0, "s");
  L.add_percentiles("dyrs.transfer_s", samples_after(*tb, "dyrs.migration.transfer_s", xfer0),
                    1.0, "s");
  L.add("dyrs.demotions", static_cast<double>(mig[4]), "count");
  L.add("dyrs.peak_pinned_gib", peak_pinned / kGiB, "GiB", nodes.size());
  L.add("dyrs.warmup_ms", warmup_ms.samples().front(), "ms");
  L.add("wl.generate_ms", generate_ms.samples().front(), "ms");

  rep.trace_events = sink->events().size();
  const obs::TraceReader reader(sink->events());
  const obs::InvariantReport report = obs::TraceInvariants{}.check(reader);
  rep.violations = report.violations.size();
  rep.invariants = report.summary();
  spans.close(rep_span);
  return rep;
}

}  // namespace

Outcome run_sim(const Args& args, Report& e2e, Report& layers, SpanLog& spans) {
  const bool scale = args.workload == "sim_swim_scale";
  SimSpec spec = scale ? swim_scale_spec(args.seed, args.smoke ? 2 : 16)
                       : paper_pressure_spec(args.seed, args.smoke ? 200 : 8000);
  if (args.time_cap_s > 0) spec.time_cap = seconds(args.time_cap_s);

  Outcome out;
  std::vector<SimRep> reps;
  const auto t0 = Clock::now();
  double peak_rss = 0;
  do {
    reps.push_back(run_rep(spec, /*traced=*/false, spans));
    if (reps.size() == 1) peak_rss = peak_rss_mib();
  } while (another_rep(t0, reps.size(), args));

  SimRep traced;
  if (args.trace) traced = run_rep(spec, /*traced=*/true, spans);

  std::vector<double> setup, wall;
  const SimRep& first = reps.front();
  for (const SimRep& r : reps) {
    setup.push_back(r.setup_s);
    wall.push_back(r.run_s);
  }
  // The fastest repetition: the host's other tenants only ever slow one down.
  const double wall_s = *std::min_element(wall.begin(), wall.end());
  std::vector<const SimRep*> all;
  for (const SimRep& r : reps) all.push_back(&r);
  if (args.trace) all.push_back(&traced);
  for (const SimRep* r : all) {
    out.attempted += r->submitted;
    out.failed += r->submitted - r->completed;
    if (r->digest != first.digest) {
      out.error("modelled outcome differs between repetitions of one seed");
    }
  }

  std::cout << "workload " << args.workload << ": " << spec.config.num_nodes << " nodes, "
            << spec.swim.num_jobs << " jobs, " << all.size() << " repetitions\n"
            << "digest " << std::hex << std::setw(16) << std::setfill('0') << first.digest
            << std::dec << std::setfill(' ')
            << " (per-job submit/finish times, per-task read media)\nrun() seconds:";
  for (const SimRep* r : all) std::cout << " " << r->run_s;
  std::cout << (args.trace ? " (last traced)\n" : "\n");
  if (!scale) {
    // The modelled outcome under memory pressure: a tier-honest read path is
    // meant to move these on this workload.
    std::cout << "modelled: job_s_p50 " << SampleSet(first.job_s).quantile(0.5)
              << " job_s_p99 " << SampleSet(first.job_s).quantile(0.99)
              << " memory_read_frac " << first.memory_read_frac << " demotions "
              << first.demotions << " (n=" << first.job_s.count() << " jobs)\n";
  }

  e2e.add("setup_s", median(setup), "s", setup.size());
  e2e.add("peak_rss_mb", peak_rss, "MiB");
  e2e.add("sim_wall_s", wall_s, "s", wall.size());
  e2e.add_percentiles("sim_job_s", first.job_s, 1.0, "s");
  e2e.add("rt_drain_blocks_per_s",
          wall_s > 0 ? static_cast<double>(first.migrations_completed) / wall_s : 0.0, "blocks/s",
          wall.size());
  e2e.add("rt_coverage", first.memory_read_frac, "fraction");

  if (args.trace) {
    layers.add("sim.ns_per_event", first.events > 0 ? wall_s / first.events * 1e9 : 0, "ns",
               first.events);
    for (const Metric& m : traced.layers.metrics()) layers.add(m.name, m.value, m.unit, m.samples);
    layers.add("obs.trace_events", static_cast<double>(traced.trace_events), "count");
    layers.add("obs.trace_overhead_frac", wall_s > 0 ? traced.run_s / wall_s - 1.0 : 0,
               "fraction", wall.size());
    layers.add("obs.ns_per_trace_event",
               traced.trace_events > 0 ? (traced.run_s - wall_s) / traced.trace_events * 1e9 : 0,
               "ns", traced.trace_events);
    layers.add("obs.invariant_violations", static_cast<double>(traced.violations), "count");
    std::cout << "trace invariants (sim profile): " << traced.invariants << "\n";
    if (traced.violations > 0) out.error("trace invariant violations: " + traced.invariants);
  }
  return out;
}

Outcome run_scale_point(const Args& args, Report& out) {
  SpanLog spans(false);
  const SimSpec spec = swim_scale_spec(args.seed, args.scale_k);
  const SimRep rep = run_rep(spec, /*traced=*/false, spans);
  out.add("k", args.scale_k, "factor");
  out.add("nodes", spec.config.num_nodes, "count");
  out.add("jobs", static_cast<double>(rep.submitted), "count");
  out.add("setup_s", rep.setup_s, "s");
  out.add("sim_wall_s", rep.run_s, "s");
  out.add("sim.events", static_cast<double>(rep.events), "count");
  out.add("sim.ns_per_event", rep.events > 0 ? rep.run_s / rep.events * 1e9 : 0, "ns",
          rep.events);
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  Outcome o;
  o.attempted = rep.submitted;
  o.failed = rep.submitted - rep.completed;
  return o;
}

}  // namespace perfbench
