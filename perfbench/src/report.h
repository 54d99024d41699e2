// Metric collection, the benchmark's own spans, and the run outcome shared
// by every workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/summary.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line settings every workload receives.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measuring budget for the untraced repetitions
  bool trace = false;   // add the traced repetition and per-layer metrics
  bool smoke = false;   // shrink every workload (self-test)
  double time_cap_s = 0;  // sim time cap override; 0 = workload default
  int scale_k = 0;        // sim_swim_scale scale factor override (diagnostic)
  std::string spans_out;  // where the benchmark's own spans are written
  double rt_lead_ms = 6;  // rt_jobs read deadline after submission
};

/// Whether the untraced repetition loop started at `t0` should run once
/// more: only while the next repetition is predicted to end within the
/// measuring budget, which a traced run halves to leave room for its traced
/// repetition.
inline bool another_rep(Clock::time_point t0, std::size_t done, const Args& args) {
  const double elapsed = seconds_since(t0);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  return elapsed + elapsed / static_cast<double>(done) <= budget;
}

/// Operations attempted and failed, plus every correctness check that did
/// not hold. A run is correct only with no failures and no errors.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;

  void error(std::string what) { errors.push_back(std::move(what)); }
  bool correct() const { return failed == 0 && errors.empty(); }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;  // observations behind the value
};

/// Named metrics in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  /// Adds `<prefix>_p50` and `<prefix>_p99` (or just p50 when `p99` is
  /// false) over `set`, each scaled by `scale`; an empty set reports 0 with
  /// zero samples.
  void add_percentiles(const std::string& prefix, dyrs::SampleSet set, double scale,
                       const std::string& unit, bool p99 = true);
  const std::vector<Metric>& metrics() const { return metrics_; }

  void print_table(std::ostream& os, const std::string& title) const;

 private:
  std::vector<Metric> metrics_;
};

double median(std::vector<double> values);
/// Peak resident set of this process so far, in MiB (VmHWM). Workloads
/// read it after their first repetition: later repetitions of a fresh-state
/// workload only add allocator reuse noise, not state.
double peak_rss_mib();

/// The benchmark's own spans around each call into a layer. Disabled spans
/// cost one branch; enabled ones are kept in memory and written as JSONL
/// when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t parent = 0);
  void close(std::uint64_t id);
  /// Records a span whose interval was measured by the caller.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t parent = 0);

  std::size_t size() const { return spans_.size(); }
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;  // id = index + 1
};

/// Times `f`, adds the duration in `unit_scale` units (1e6 = microseconds)
/// to `into`, and records a span named `name` when spans are on.
template <class F>
auto timed(SpanLog& spans, const char* name, dyrs::SampleSet& into, double unit_scale, F&& f) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    const auto t1 = Clock::now();
    into.add(std::chrono::duration<double>(t1 - t0).count() * unit_scale);
    if (spans.enabled()) spans.record(name, t0, t1);
  } else {
    auto result = f();
    const auto t1 = Clock::now();
    into.add(std::chrono::duration<double>(t1 - t0).count() * unit_scale);
    if (spans.enabled()) spans.record(name, t0, t1);
    return result;
  }
}

/// FNV-1a over 64-bit words: the modelled-behaviour digest.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
