// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--rt-lead-ms L] [--spans-out FILE] [--smoke] [--time-cap-s T]
//   perfbench --scale-k K [--seed N]
//
// Runs one workload for S seconds of untraced repetitions (end-to-end
// metrics); with --trace 1 it adds one traced repetition for the per-layer
// metrics and the tracing overhead. Prints every metric with its unit and
// sample count, then, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit,n}}}
// Exits non-zero when an operation failed or an output check did not hold.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Args;

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload sim_swim_scale|sim_paper_pressure|rt_backlog|rt_jobs\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] [--rt-lead-ms L]\n"
               "                 [--spans-out FILE] [--smoke] [--time-cap-s T]\n"
               "       perfbench --scale-k K [--seed N]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--time-cap-s") {
      a.time_cap_s = std::stod(value());
    } else if (flag == "--scale-k") {
      a.scale_k = std::stoi(value());
    } else if (flag == "--spans-out") {
      a.spans_out = value();
    } else if (flag == "--rt-lead-ms") {
      a.rt_lead_ms = std::stod(value());
    } else {
      usage();
    }
  }
  if (a.scale_k > 0) return a;
  if (a.workload != "sim_swim_scale" && a.workload != "sim_paper_pressure" &&
      a.workload != "rt_backlog" && a.workload != "rt_jobs") {
    usage();
  }
  if (a.seconds < 0 || a.rt_lead_ms <= 0) usage();
  return a;
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

void print_result(const perfbench::Outcome& out,
                  std::initializer_list<const perfbench::Report*> reports) {
  std::cout << "{\"correct\":" << (out.correct() ? "true" : "false")
            << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
            << ",\"metrics\":{";
  bool first = true;
  for (const perfbench::Report* r : reports) {
    for (const perfbench::Metric& m : r->metrics()) {
      std::cout << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":" << json_number(m.value)
                << ",\"unit\":\"" << m.unit << "\",\"n\":" << m.samples << "}";
      first = false;
    }
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::Outcome out;
  perfbench::Report e2e, layers;
  try {
    if (args.scale_k > 0) {
      out = perfbench::run_scale_point(args, e2e);
      e2e.print_table(std::cout, "sim_swim_scale k=" + std::to_string(args.scale_k));
      print_result(out, {&e2e});
      return out.correct() ? 0 : 1;
    }
    perfbench::SpanLog spans(args.trace);
    const auto root = spans.open("perfbench.run");
    out = args.workload.rfind("sim_", 0) == 0 ? perfbench::run_sim(args, e2e, layers, spans)
                                              : perfbench::run_rt(args, e2e, layers, spans);
    spans.close(root);
    if (!args.spans_out.empty() && spans.enabled()) spans.write_jsonl(args.spans_out);
  } catch (const std::exception& e) {
    out.error(std::string("exception: ") + e.what());
  }
  e2e.print_table(std::cout, "end-to-end (untraced repetitions)");
  if (args.trace) layers.print_table(std::cout, "per-layer (traced repetition)");
  std::cout << "operations: " << out.attempted << " attempted, " << out.failed << " failed\n";
  for (const std::string& e : out.errors) std::cout << "CHECK FAILED: " << e << "\n";
  print_result(out, {&e2e, &layers});
  return out.correct() ? 0 : 1;
}
