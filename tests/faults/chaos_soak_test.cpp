// Chaos soak: randomized seeded fault plans replayed against every scheme.
// Under any combination of crashes, server deaths, partitions, I/O-error
// windows and disk degradation, all jobs must complete and the cross-layer
// invariants must hold; the same seed must reproduce the same fault trace.
#include <gtest/gtest.h>

#include <string>

#include "exec/testbed.h"
#include "faults/fault_plan.h"
#include "workloads/sort.h"

namespace dyrs::faults {
namespace {

struct SoakResult {
  std::size_t jobs_completed = 0;
  std::size_t violations = 0;
  std::vector<std::string> trace;
  double makespan_s = 0;
};

SoakResult run_soak(exec::Scheme scheme, std::uint64_t seed) {
  exec::TestbedConfig config;
  config.num_nodes = 5;
  config.disk_bandwidth = mib_per_sec(128);
  config.seek_alpha = 0.15;
  config.block_size = mib(128);
  config.replication = 3;
  config.placement_seed = seed;
  config.fault_seed = seed + 17;
  config.scheme = scheme;
  config.master.slave.reference_block = mib(128);
  config.master.retry.backoff = milliseconds(250);
  exec::Testbed tb(config);

  auto& checker = tb.enable_invariant_checks();
  RandomPlanOptions opts;
  opts.num_nodes = config.num_nodes;
  opts.start = seconds(2);
  opts.horizon = seconds(90);
  opts.incidents = 4;
  opts.io_error_windows = 3;
  opts.degradation_windows = 2;
  auto& injector = tb.install_fault_plan(FaultPlan::random(opts, seed));

  tb.load_file("/soak/a", gib(1));
  tb.load_file("/soak/b", mib(512));
  wl::SortConfig sort;
  sort.input = gib(1);
  sort.platform_overhead = seconds(6);
  sort.reducers = 4;
  tb.submit(wl::sort_job("/soak/a", sort));
  exec::JobSpec scan;
  scan.name = "scan";
  scan.input_files = {"/soak/b"};
  scan.selectivity = 0.2;
  scan.num_reducers = 2;
  scan.platform_overhead = seconds(5);
  tb.submit_at(scan, seconds(20));
  const SimTime end = tb.run(/*max_time=*/hours(2));

  SoakResult r;
  r.jobs_completed = tb.metrics().jobs().size();
  r.violations = checker.violations().size();
  r.trace = injector.trace();
  r.makespan_s = to_seconds(end);
  for (const auto& v : checker.violations()) {
    ADD_FAILURE() << to_string(scheme) << " seed " << seed << ": invariant " << v.invariant
                  << " violated at t=" << to_seconds(v.at) << "s: " << v.detail;
  }
  return r;
}

class ChaosSoakTest : public ::testing::TestWithParam<exec::Scheme> {};

TEST_P(ChaosSoakTest, JobsCompleteAndInvariantsHoldUnderRandomFaults) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const SoakResult r = run_soak(GetParam(), seed);
    EXPECT_EQ(r.jobs_completed, 2u) << "seed " << seed;
    EXPECT_EQ(r.violations, 0u) << "seed " << seed;
    EXPECT_FALSE(r.trace.empty()) << "seed " << seed;
  }
}

TEST_P(ChaosSoakTest, SameSeedSameFaultTraceAndOutcome) {
  const SoakResult a = run_soak(GetParam(), 5);
  const SoakResult b = run_soak(GetParam(), 5);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ChaosSoakTest,
                         ::testing::Values(exec::Scheme::Hdfs, exec::Scheme::InputsInRam,
                                           exec::Scheme::Ignem, exec::Scheme::Dyrs,
                                           exec::Scheme::NaiveBalancer),
                         [](const ::testing::TestParamInfo<exec::Scheme>& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dyrs::faults
