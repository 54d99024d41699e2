// Fig 7 variant — memory-capacity sweep of the migrated-memory buffer
// under the watermark eviction policy.
//
// Fig 7 in the paper reports DYRS's per-server memory footprint with
// effectively unbounded RAM. This variant asks the follow-up question: what
// happens when migrated data does NOT fit? We sweep the per-node cap for
// migrated data downward while a fixed job sequence runs, with
// EvictColdFirst admission and watermarks (demote down to the low mark
// after crossing the high mark). Expected shape: no demotions while the cap
// exceeds the working set; once the cap bites, cold blocks fall back to
// disk, where their reads cost disk time, while jobs keep completing. The
// tightest cap must cost job time against the uncapped run. The points in
// between are not asserted to order: at full scale the 2 GiB cap costs
// more job time than the 1 GiB cap.
//
// Every sweep point runs twice with identical seeds; the serialized traces
// must match byte-for-byte (determinism guard), and each trace must pass
// the invariant oracle, the demote and demoted-read rules included.
// Results go to stdout and BENCH_fig07_capacity.json.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common/bench_util.h"
#include "common/table.h"
#include "obs/trace.h"

using namespace dyrs;

namespace {

struct PointResult {
  Bytes limit = 0;
  long demotions = 0;       // memory -> disk, all nodes
  double peak_mem_gib = 0;  // max over nodes of peak pinned bytes
  double mean_job_s = 0;
  bool oracle_ok = false;
  std::size_t oracle_demotes = 0;  // mig_demote events the oracle saw
  std::string trace;               // serialized JSONL, for byte-stability
};

PointResult run_point(Bytes limit, Bytes file_size, int num_jobs) {
  exec::TestbedConfig c = bench::paper_config(exec::Scheme::Dyrs);
  c.master.slave.memory_limit = limit;
  c.master.tier = {.high_watermark = 0.85,
                   .low_watermark = 0.6,
                   .on_pressure = core::TierPolicy::OnPressure::EvictColdFirst};

  exec::Testbed tb(c);
  obs::MemorySink& sink = tb.trace_to_memory();

  // All jobs land at once and compute slowly, so every input migrates and
  // stays pinned (Explicit) while the jobs run — per-node pinned bytes
  // approach working_set / num_nodes, well past the tight sweep points.
  exec::JobSpec base;
  base.selectivity = 0.1;
  base.num_reducers = 2;
  base.platform_overhead = seconds(5);
  base.task_overhead = milliseconds(200);
  base.map_compute_rate = mib_per_sec(40);
  base.eviction = core::EvictionMode::Explicit;  // pin inputs until job end
  for (int i = 0; i < num_jobs; ++i) {
    const std::string file = "/cap/input-" + std::to_string(i);
    tb.load_file(file, file_size);
    exec::JobSpec spec = base;
    spec.name = "cap-" + std::to_string(i);
    spec.input_files = {file};
    tb.submit(spec);
  }
  const SimTime end = tb.run(hours(12));

  PointResult out;
  out.limit = limit;
  out.mean_job_s = tb.metrics().mean_job_duration_s();
  for (NodeId id : tb.cluster().node_ids()) {
    const auto& node = tb.cluster().node(id);
    out.peak_mem_gib = std::max(
        out.peak_mem_gib, to_gib(static_cast<Bytes>(node.memory().usage_series().step_max(0, end))));
    out.demotions += tb.master()->slave(id).demotions();
  }

  const obs::TraceReader reader = bench::trace_reader(sink);
  const obs::InvariantReport report = obs::TraceInvariants{}.check(reader);
  out.oracle_ok = report.ok();
  out.oracle_demotes = report.demotions;
  out.trace.reserve(sink.events().size() * 120);
  for (const auto& e : sink.events()) {
    out.trace += obs::to_json(e);
    out.trace += '\n';
  }
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig 7 variant: migrated-memory capacity sweep with watermark eviction",
      "with bounded memory, watermark eviction demotes cold blocks to disk "
      "instead of refusing migrations; jobs keep completing and pay for the disk reads");

  const Bytes file_size = bench::smoke_mode() ? gib(1) : gib(4);
  const int num_jobs = bench::smoke_mode() ? 6 : 8;
  const Bytes total = static_cast<Bytes>(num_jobs) * file_size;
  std::vector<Bytes> limits;
  if (bench::smoke_mode()) {
    limits = {gib(8), mib(512)};
  } else {
    limits = {gib(32), gib(4), gib(2), gib(1)};
  }

  std::vector<PointResult> points;
  std::vector<bool> stable;
  for (Bytes limit : limits) {
    PointResult a = run_point(limit, file_size, num_jobs);
    PointResult b = run_point(limit, file_size, num_jobs);
    stable.push_back(a.trace == b.trace);
    points.push_back(std::move(a));
  }

  TextTable table(
      {"mem limit", "demotions", "peak mem", "mean job", "oracle", "byte-stable"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    table.add_row({TextTable::num(to_gib(p.limit), 2) + " GiB", std::to_string(p.demotions),
                   TextTable::num(p.peak_mem_gib, 2) + " GiB",
                   TextTable::num(p.mean_job_s, 1) + " s", p.oracle_ok ? "clean" : "VIOLATED",
                   stable[i] ? "yes" : "NO"});
  }
  table.print(std::cout);
  bench::maybe_dump_csv("fig07_capacity", table);
  std::cout << "\nworking set: " << TextTable::num(to_gib(total), 1) << " GiB across "
            << num_jobs << " jobs\n";

  // Shape: the unbounded point never demotes; the tightest point must, and
  // its demote events must have reached the trace for the oracle to count.
  const auto& roomy = points.front();
  const auto& tight = points.back();
  bench::print_shape_check(roomy.demotions == 0,
                           "no demotions while migrated data fits in memory");
  bench::print_shape_check(tight.demotions > 0 && tight.oracle_demotes > 0,
                           "memory pressure triggers watermark demotions (traced)");
  bench::print_shape_check(tight.mean_job_s > roomy.mean_job_s,
                           "pressure costs time: demoted blocks are read from disk");
  bench::print_shape_check(tight.mean_job_s > 0, "jobs complete under pressure");
  bool all_clean = true, all_stable = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    all_clean = all_clean && points[i].oracle_ok;
    all_stable = all_stable && stable[i];
  }
  bench::print_shape_check(all_clean,
                           "all traces pass the invariant oracle (demote rules incl.)");
  bench::print_shape_check(all_stable, "repeat runs are byte-identical (deterministic traces)");

  std::ofstream json("BENCH_fig07_capacity.json");
  json << "{\"bench\":\"fig07_capacity\",\"smoke\":" << (bench::smoke_mode() ? "true" : "false")
       << ",\"working_set_gib\":" << to_gib(total) << ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    json << (i ? "," : "") << "{\"limit_gib\":" << to_gib(p.limit)
         << ",\"demotions\":" << p.demotions << ",\"peak_mem_gib\":" << p.peak_mem_gib
         << ",\"mean_job_s\":" << p.mean_job_s
         << ",\"oracle_ok\":" << (p.oracle_ok ? "true" : "false")
         << ",\"byte_stable\":" << (stable[i] ? "true" : "false") << "}";
  }
  json << "]}\n";
  std::cout << "wrote BENCH_fig07_capacity.json\n\n";
  return 0;
}
