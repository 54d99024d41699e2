// dyrsctl — command-line experiment driver for the DYRS testbed.
//
// Run any scheme/workload/interference combination without writing code:
//
//   dyrsctl --scheme dyrs --workload sort --input-gib 10 --slow-node
//   dyrsctl --scheme ignem --workload swim --jobs 100
//   dyrsctl --scheme dyrs --workload hive --scale 0.5
//   dyrsctl --compare --workload sort --input-gib 8    (all schemes)
//
// Prints job metrics and, for master-based schemes, migration statistics.
//
// The `trace` subcommand analyzes a previously captured JSONL trace:
//
//   dyrsctl trace run.jsonl            span table, per-node timelines,
//                                      invariant verdict (exit 1 on violation)
//   dyrsctl trace run.jsonl --strict-open   also flag open lifecycles
//   dyrsctl trace rt.jsonl --profile rt     merged rt trace (no global
//                                           time-order rule)
//   dyrsctl trace run.jsonl --policy        replay Algorithm 1's choices
//   dyrsctl trace rt.jsonl --span-seq       per-block event signatures only
//                                           (for run-to-run determinism diffs)
#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/table.h"
#include "obs/trace_analysis.h"
#include "obs/trace_invariants.h"
#include "workloads/sort.h"
#include "workloads/swim.h"
#include "workloads/tpcds.h"

using namespace dyrs;

namespace {

struct Args {
  std::string scheme = "dyrs";
  std::string workload = "sort";
  double input_gib = 10;
  int jobs = 60;
  double scale = 0.5;
  bool slow_node = false;
  bool compare = false;
  double lead_s = 5;
  std::uint64_t seed = 1;
  std::string trace;  // JSONL trace output (per-scheme suffix when comparing)
  bool dump_metrics = false;
};

[[noreturn]] void usage() {
  std::cerr <<
      "usage: dyrsctl [options]\n"
      "       dyrsctl trace FILE.jsonl [--strict-open] [--tail N]\n"
      "  --scheme hdfs|inram|ignem|dyrs|naive   migration scheme (default dyrs)\n"
      "  --workload sort|swim|hive              workload (default sort)\n"
      "  --input-gib N                          sort input size (default 10)\n"
      "  --jobs N                               swim job count (default 60)\n"
      "  --scale X                              hive table scale (default 0.5)\n"
      "  --lead S                               platform overhead seconds (default 5)\n"
      "  --slow-node                            cripple node 0 with dd interference\n"
      "  --seed N                               placement/workload seed\n"
      "  --compare                              run all schemes and compare\n"
      "  --trace FILE                           dump a JSONL lifecycle trace\n"
      "                                         (FILE.<scheme> with --compare)\n"
      "  --dump-metrics                         print the metrics registry after each run\n";
  std::exit(2);
}

std::optional<exec::Scheme> parse_scheme(const std::string& s) {
  if (s == "hdfs") return exec::Scheme::Hdfs;
  if (s == "inram") return exec::Scheme::InputsInRam;
  if (s == "ignem") return exec::Scheme::Ignem;
  if (s == "dyrs") return exec::Scheme::Dyrs;
  if (s == "naive") return exec::Scheme::NaiveBalancer;
  return std::nullopt;
}

struct RunResult {
  double mean_job_s = 0;
  double mean_map_s = 0;
  double memory_fraction = 0;
  long migrations = 0;
  long cancelled = 0;
};

RunResult run_workload(exec::Scheme scheme, const Args& args) {
  exec::TestbedConfig config;
  config.scheme = scheme;
  config.placement_seed = args.seed;
  exec::Testbed tb(config);
  if (!args.trace.empty()) {
    const std::string path =
        args.compare ? args.trace + "." + exec::to_string(scheme) : args.trace;
    tb.trace_to_jsonl(path);
    tb.enable_sampling();
  }
  if (args.slow_node) tb.add_persistent_interference(NodeId(0), 2);

  if (args.workload == "sort") {
    tb.load_file("/in", gib(args.input_gib));
    wl::SortConfig sort;
    sort.input = gib(args.input_gib);
    sort.platform_overhead = seconds(args.lead_s);
    tb.submit(wl::sort_job("/in", sort));
  } else if (args.workload == "swim") {
    wl::SwimConfig swim;
    swim.num_jobs = args.jobs;
    swim.total_input = gib(std::max(8.0, args.jobs * 0.85));
    swim.max_input = gib(8);
    swim.seed = args.seed + 4;
    exec::JobSpec base;
    base.platform_overhead = seconds(args.lead_s);
    wl::SwimWorkload::generate(swim).install(tb, base);
  } else if (args.workload == "hive") {
    exec::JobSpec base;
    base.platform_overhead = seconds(args.lead_s);
    wl::QueryRunner::run_suite(tb, wl::tpcds_queries(args.scale), base);
  } else {
    usage();
  }
  tb.run();

  RunResult out;
  out.mean_job_s = tb.metrics().mean_job_duration_s();
  out.mean_map_s = tb.metrics().mean_map_task_duration_s();
  out.memory_fraction = tb.metrics().memory_read_fraction();
  if (tb.master() != nullptr) {
    out.migrations = tb.master()->migrations_completed();
    out.cancelled = tb.registry().find_counter("dyrs.migrations.cancelled")->value();
  }
  if (args.dump_metrics) {
    std::cout << "--- metrics (" << exec::to_string(scheme) << ") ---\n";
    tb.registry().dump(std::cout);
  }
  tb.stop_tracing();  // flush the JSONL file before the testbed dies
  return out;
}

[[noreturn]] void trace_usage() {
  std::cerr << "usage: dyrsctl trace FILE.jsonl [--profile sim|rt|rt-faults] [--strict-open]\n"
               "                    [--tail N] [--chronological]\n"
               "                    [--policy [--policy-margin X] [--ref-block-mib N]]\n"
               "                    [--span-seq]\n"
               "  --profile P        invariant profile (default sim); rt skips the global\n"
               "                     time-order rule (merged rt traces are block-grouped);\n"
               "                     rt-faults additionally skips live-bind (blockless fault\n"
               "                     markers sort ahead of every lifecycle when merged)\n"
               "  --strict-open      flag lifecycles still open at end-of-trace\n"
               "  --tail N           straggler window size (default 10)\n"
               "  --chronological    re-sort events by wall timestamp before replay; turns a\n"
               "                     merged rt trace back into execution order so the policy\n"
               "                     oracle sees realistic node loads (tighter margins hold)\n"
               "  --policy           replay Algorithm 1 earliest-finish targeting from\n"
               "                     sampled est probes and flag contradicting targets\n"
               "  --policy-margin X  relative slack before flagging (default 0.5)\n"
               "  --ref-block-mib N  block size the est probe is normalized to (default 256)\n"
               "  --span-seq         print only per-block event signatures (type@node),\n"
               "                     the run-stable projection of an rt trace\n";
  std::exit(2);
}

/// Prints one line per block: the sequence of migration-lifecycle event
/// signatures (`type@node`) in trace order. For merged rt traces this is
/// exactly the projection the determinism contract promises to be identical
/// across runs (timings and rates vary; the per-block order does not), so
/// CI captures it twice and diffs.
void print_span_signatures(const obs::TraceReader& reader) {
  std::map<std::int64_t, std::string> per_block;
  for (const obs::TraceEvent& e : reader.events()) {
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
  for (const auto& [block, line] : per_block) {
    std::cout << "block " << block << ": " << line << "\n";
  }
}

int run_trace_command(int argc, char** argv) {
  std::string path;
  bool strict_open = false;
  bool span_seq = false;
  bool chronological = false;
  std::size_t tail_window = 10;
  obs::TraceInvariants oracle;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--strict-open")) {
      strict_open = true;
    } else if (!std::strcmp(argv[i], "--span-seq")) {
      span_seq = true;
    } else if (!std::strcmp(argv[i], "--profile") && i + 1 < argc) {
      const std::string profile = argv[++i];
      if (profile == "sim") {
        oracle.profile = obs::TraceInvariants::Profile::Sim;
      } else if (profile == "rt") {
        oracle.profile = obs::TraceInvariants::Profile::Rt;
      } else if (profile == "rt-faults") {
        oracle.profile = obs::TraceInvariants::Profile::RtFaults;
      } else {
        trace_usage();
      }
    } else if (!std::strcmp(argv[i], "--chronological")) {
      chronological = true;
    } else if (!std::strcmp(argv[i], "--policy")) {
      oracle.check_policy = true;
    } else if (!std::strcmp(argv[i], "--policy-margin") && i + 1 < argc) {
      oracle.policy_margin = std::stod(argv[++i]);
    } else if (!std::strcmp(argv[i], "--ref-block-mib") && i + 1 < argc) {
      oracle.policy_reference_block = mib(std::stoul(argv[++i]));
    } else if (!std::strcmp(argv[i], "--tail") && i + 1 < argc) {
      tail_window = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      trace_usage();
    }
  }
  if (path.empty()) trace_usage();

  std::vector<obs::TraceEvent> events = obs::read_jsonl_file(path);
  if (chronological) {
    // Merged rt traces are block-grouped; re-sorting by wall timestamp
    // (stable: equal stamps keep canonical order) restores execution order,
    // which is what the policy oracle's load accounting assumes.
    std::stable_sort(events.begin(), events.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) { return a.at < b.at; });
  }
  obs::TraceReader reader(std::move(events));
  if (span_seq) {
    print_span_signatures(reader);
    return 0;
  }
  obs::TraceAnalysis analysis(reader);

  std::cout << path << ": " << reader.events().size() << " events\n";
  for (const auto& [type, n] : analysis.event_counts()) {
    std::cout << "  " << type << " x" << n << "\n";
  }

  const obs::SpanTable& spans = analysis.spans();
  std::cout << "\n--- migration spans: " << spans.rows.size() << " lifecycles ("
            << spans.completed << " completed, " << spans.aborted << " aborted, " << spans.open
            << " open), " << spans.retries << " retries ---\n";
  if (spans.completed > 0) {
    obs::SpanTable& mut = const_cast<obs::SpanTable&>(spans);  // quantile() sorts lazily
    TextTable stats({"phase", "mean (s)", "p50 (s)", "p99 (s)", "max (s)"});
    auto stat_row = [&stats](const char* name, SampleSet& s) {
      if (s.empty()) return;
      stats.add_row({name, TextTable::num(s.mean(), 3), TextTable::num(s.quantile(0.5), 3),
                     TextTable::num(s.quantile(0.99), 3), TextTable::num(s.max(), 3)});
    };
    stat_row("queue wait", mut.queue_wait_s);
    stat_row("transfer", mut.transfer_s);
    stat_row("enqueue->done", mut.total_s);
    stats.print(std::cout);

    // The slowest end-to-end migrations, the rows worth reading first.
    std::vector<const obs::SpanRow*> slowest;
    for (const obs::SpanRow& r : spans.rows) {
      if (r.total_s >= 0) slowest.push_back(&r);
    }
    std::sort(slowest.begin(), slowest.end(), [](const obs::SpanRow* a, const obs::SpanRow* b) {
      return a->total_s > b->total_s;
    });
    if (slowest.size() > 10) slowest.resize(10);
    TextTable rows({"block", "node", "enqueue (s)", "wait (s)", "transfer (s)", "total (s)",
                    "retries"});
    for (const obs::SpanRow* r : slowest) {
      rows.add_row({std::to_string(r->span.block.value()), std::to_string(r->span.node.value()),
                    TextTable::num(to_seconds(r->span.enqueued_at), 1),
                    TextTable::num(r->queue_wait_s, 3), TextTable::num(r->transfer_s, 3),
                    TextTable::num(r->total_s, 3), std::to_string(r->span.retries)});
    }
    if (rows.row_count() > 0) {
      std::cout << "slowest migrations:\n";
      rows.print(std::cout);
    }
  }

  std::cout << "\n--- per-node timelines ---\n";
  TextTable nodes({"node", "binds", "starts", "retries", "failed", "completes", "aborts",
                   "MiB", "mem reads", "disk reads", "active (s)", "last done (s)"});
  for (const obs::NodeTimeline& tl : analysis.nodes()) {
    const double active_s =
        tl.first_event >= 0 ? to_seconds(tl.last_event - tl.first_event) : 0.0;
    nodes.add_row({std::to_string(tl.node.value()), std::to_string(tl.binds),
                   std::to_string(tl.transfer_starts), std::to_string(tl.retries),
                   std::to_string(tl.transfer_failures), std::to_string(tl.completes),
                   std::to_string(tl.aborts), TextTable::num(to_mib(tl.bytes_migrated), 0),
                   std::to_string(tl.memory_reads), std::to_string(tl.disk_reads),
                   TextTable::num(active_s, 1),
                   tl.last_completion >= 0 ? TextTable::num(to_seconds(tl.last_completion), 1)
                                           : "-"});
  }
  nodes.print(std::cout);

  const obs::TailStats tail = analysis.tail(tail_window);
  if (tail.window > 0) {
    std::cout << "\nlast " << tail.window << " completions span "
              << TextTable::num(tail.span_s, 2) << "s:";
    for (const auto& [node, n] : tail.per_node) {
      std::cout << " node" << node.value() << "=" << n;
    }
    std::cout << "\n";
  }

  oracle.flag_open_lifecycles = strict_open;
  const obs::InvariantReport report = oracle.check(reader);
  std::cout << "\ninvariants: " << report.summary() << "\n";
  if (oracle.check_policy) {
    std::cout << "  policy oracle: " << report.policy_checked << " targets scored, "
              << report.policy_skipped << " skipped (no estimator snapshot)\n";
  }
  if (report.open_at_end > 0 || report.abandoned_by_failover > 0 || report.zombie_events > 0) {
    std::cout << "  (" << report.open_at_end << " open at end, " << report.abandoned_by_failover
              << " abandoned by failover, " << report.zombie_events
              << " tolerated zombie events)\n";
  }
  for (const obs::InvariantViolation& v : report.violations) {
    std::cout << "  [" << v.rule << "] t=" << TextTable::num(to_seconds(v.at), 3) << "s event #"
              << v.event_index << " block=" << v.block.value() << " node=" << v.node.value()
              << ": " << v.detail << "\n";
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "trace")) return run_trace_command(argc, argv);
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        usage();
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--scheme")) args.scheme = need_value("--scheme");
    else if (!std::strcmp(argv[i], "--workload")) args.workload = need_value("--workload");
    else if (!std::strcmp(argv[i], "--input-gib")) args.input_gib = std::stod(need_value("--input-gib"));
    else if (!std::strcmp(argv[i], "--jobs")) args.jobs = std::stoi(need_value("--jobs"));
    else if (!std::strcmp(argv[i], "--scale")) args.scale = std::stod(need_value("--scale"));
    else if (!std::strcmp(argv[i], "--lead")) args.lead_s = std::stod(need_value("--lead"));
    else if (!std::strcmp(argv[i], "--seed")) args.seed = std::stoull(need_value("--seed"));
    else if (!std::strcmp(argv[i], "--slow-node")) args.slow_node = true;
    else if (!std::strcmp(argv[i], "--compare")) args.compare = true;
    else if (!std::strcmp(argv[i], "--trace")) args.trace = need_value("--trace");
    else if (!std::strcmp(argv[i], "--dump-metrics")) args.dump_metrics = true;
    else usage();
  }

  std::vector<exec::Scheme> schemes;
  if (args.compare) {
    schemes = {exec::Scheme::Hdfs, exec::Scheme::InputsInRam, exec::Scheme::Ignem,
               exec::Scheme::Dyrs};
  } else {
    auto scheme = parse_scheme(args.scheme);
    if (!scheme) usage();
    schemes = {*scheme};
  }

  TextTable table({"scheme", "mean job (s)", "mean map (s)", "mem reads", "migrations",
                   "cancelled"});
  for (auto scheme : schemes) {
    std::cerr << "running " << args.workload << " under " << to_string(scheme) << "...\n";
    auto r = run_workload(scheme, args);
    table.add_row({to_string(scheme), TextTable::num(r.mean_job_s, 1),
                   TextTable::num(r.mean_map_s, 2), TextTable::percent(r.memory_fraction, 0),
                   std::to_string(r.migrations), std::to_string(r.cancelled)});
  }
  table.print(std::cout);
  return 0;
}
