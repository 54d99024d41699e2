// The `demote` and `demoted-read` invariant rules. A mig_demote acts on
// settled data, so the block must have a prior mig_complete on that node,
// and the only move is memory -> disk. A demoted block is read at disk
// speed, so a memory read_done that started after the demote, with no fresh
// mig_complete in between, is a violation. Synthetic traces pin down the
// rules in isolation; end-to-end coverage (real demoting runs coming out
// clean) lives in the tier eviction tests and the fig07 capacity sweep.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"

namespace dyrs::obs {
namespace {

TraceEvent enqueue(SimTime at, int block) {
  TraceEvent e(at, "mig_enqueue");
  e.with("block", block).with("job", 1).with("size", static_cast<std::int64_t>(mib(256)));
  return e;
}

TraceEvent complete(SimTime at, int block, int node) {
  TraceEvent e(at, "mig_complete");
  e.with("block", block).with("node", node).with("size", static_cast<std::int64_t>(mib(256)));
  return e;
}

TraceEvent demote(SimTime at, int block, int node, const std::string& from = "memory",
                  const std::string& to = "disk") {
  TraceEvent e(at, "mig_demote");
  e.with("block", block).with("node", node).with("from", from).with("to", to)
      .with("size", static_cast<std::int64_t>(mib(256)));
  return e;
}

/// A read of `block` served from `node`'s memory, ending at `at` after
/// `latency_us`.
TraceEvent memory_read(SimTime at, int block, int node, std::int64_t latency_us) {
  TraceEvent e(at, "read_done");
  e.with("block", block).with("job", 1).with("node", node).with("medium", "local-memory")
      .with("latency_us", latency_us);
  return e;
}

std::size_t violations_of(const InvariantReport& report, const std::string& rule) {
  std::size_t n = 0;
  for (const auto& v : report.violations) {
    if (v.rule == rule) ++n;
  }
  return n;
}

InvariantReport check(std::vector<TraceEvent> events) {
  return TraceInvariants{}.check(TraceReader(std::move(events)));
}

TEST(DemoteRule, DownwardDemoteAfterCompletePasses) {
  const auto report = check({complete(10, 7, 0), demote(20, 7, 0)});
  EXPECT_EQ(report.demotions, 1u);
  EXPECT_EQ(violations_of(report, "demote"), 0u) << report.summary();
}

TEST(DemoteRule, WholeChainDownToDiskPasses) {
  // A block demoted, migrated again and demoted again, and a second block
  // demoted once: every move lands on disk after a completion there.
  const auto report = check({complete(10, 7, 0), complete(12, 8, 0), demote(20, 7, 0),
                             complete(30, 7, 0), demote(40, 7, 0), demote(50, 8, 0)});
  EXPECT_EQ(report.demotions, 3u);
  EXPECT_EQ(violations_of(report, "demote"), 0u) << report.summary();
}

TEST(DemoteRule, UpwardMoveFlagged) {
  const auto report = check({complete(10, 7, 0), demote(20, 7, 0, "disk", "memory")});
  EXPECT_EQ(violations_of(report, "demote"), 1u);
}

TEST(DemoteRule, SelfMoveFlagged) {
  const auto report = check({complete(10, 7, 0), demote(20, 7, 0, "memory", "memory")});
  EXPECT_EQ(violations_of(report, "demote"), 1u);
}

TEST(DemoteRule, UnknownTierFlagged) {
  // There is no flash tier: a move to or from one names an unknown tier.
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"tape", "disk"}, {"memory", "ssd"}, {"ssd", "disk"}}) {
    const auto report = check({complete(10, 7, 0), demote(20, 7, 0, from, to)});
    EXPECT_EQ(violations_of(report, "demote"), 1u) << from << " -> " << to;
  }
}

TEST(DemoteRule, DemoteWithoutPriorCompleteFlagged) {
  const auto report = check({demote(20, 7, 0)});
  EXPECT_EQ(violations_of(report, "demote"), 1u);
}

TEST(DemoteRule, CompleteOnOtherNodeDoesNotCount) {
  // Block 7 settled on node 1; a demote on node 0 is acting on data that
  // never arrived there.
  const auto report = check({complete(10, 7, 1), demote(20, 7, 0)});
  EXPECT_EQ(violations_of(report, "demote"), 1u);
}

// --- demoted-read ----------------------------------------------------------
// The memory-read rules are active only in traces with migrations, so each
// case opens with an enqueue. The bare completions trip the terminal rule,
// so the cases count only the read rules' violations.

/// Violations of the two rules that judge memory reads.
std::size_t read_violations(const InvariantReport& report) {
  return violations_of(report, "memory-read") + violations_of(report, "demoted-read");
}

TEST(DemotedReadRule, MemoryReadStartedAfterDemoteFlagged) {
  // Demoted at 20; the read ran 25..30 from memory, which no longer held it.
  const auto report =
      check({enqueue(0, 7), complete(10, 7, 0), demote(20, 7, 0), memory_read(30, 7, 0, 5)});
  EXPECT_EQ(violations_of(report, "demoted-read"), 1u) << report.summary();
  EXPECT_EQ(read_violations(report), 1u);
}

TEST(DemotedReadRule, ReadStartedBeforeDemoteAndEndedAfterPasses) {
  // Reads that started at 15, while the block was resident, or at the
  // demote's own instant 20: only a start strictly after it is flagged.
  for (const std::int64_t latency_us : {15, 10}) {
    const auto report = check({enqueue(0, 7), complete(10, 7, 0), demote(20, 7, 0),
                               memory_read(30, 7, 0, latency_us)});
    EXPECT_EQ(read_violations(report), 0u) << "latency " << latency_us << ": " << report.summary();
  }
}

TEST(DemotedReadRule, ReadAfterFreshCompletePasses) {
  // Demoted at 20, migrated again at 40: the read from 45 is honest.
  const auto report = check({enqueue(0, 7), complete(10, 7, 0), demote(20, 7, 0),
                             complete(40, 7, 0), memory_read(50, 7, 0, 5)});
  EXPECT_EQ(read_violations(report), 0u) << report.summary();
}

TEST(DemotedReadRule, CompletionDuringTheReadDoesNotCount) {
  // The fresh completion at 40 came after the read started at 30.
  const auto report = check({enqueue(0, 7), complete(10, 7, 0), demote(20, 7, 0),
                             complete(40, 7, 0), memory_read(50, 7, 0, 20)});
  EXPECT_EQ(violations_of(report, "demoted-read"), 1u) << report.summary();
  EXPECT_EQ(read_violations(report), 1u);
}

TEST(DemotedReadRule, DemoteOnOtherNodeDoesNotCount) {
  // Block 7 is buffered on nodes 0 and 1; node 1 demoting it leaves node
  // 0's copy readable.
  const auto report = check({enqueue(0, 7), complete(10, 7, 0), complete(12, 7, 1),
                             demote(20, 7, 1), memory_read(30, 7, 0, 5)});
  EXPECT_EQ(read_violations(report), 0u) << report.summary();
}

}  // namespace
}  // namespace dyrs::obs
