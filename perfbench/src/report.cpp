#include "report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::add_percentiles(const std::string& prefix, dyrs::SampleSet set, double scale,
                             const std::string& unit, bool p99) {
  const std::size_t n = set.count();
  add(prefix + "_p50", n == 0 ? 0.0 : set.quantile(0.50) * scale, unit, n);
  if (p99) add(prefix + "_p99", n == 0 ? 0.0 : set.quantile(0.99) * scale, unit, n);
}

void Report::print_table(std::ostream& os, const std::string& title) const {
  os << "-- " << title << " --\n";
  for (const Metric& m : metrics_) {
    os << "  " << std::left << std::setw(34) << m.name << std::right << std::setw(16)
       << std::setprecision(6) << m.value << " " << std::left << std::setw(10) << m.unit
       << std::right << " n=" << m.samples << "\n";
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t SpanLog::open(const char* name, std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::int64_t now = ns(Clock::now());
  spans_.push_back({name, parent, now, -1});
  return spans_.size();
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = ns(Clock::now());
}

void SpanLog::record(const char* name, Clock::time_point start, Clock::time_point end,
                     std::uint64_t parent) {
  if (!enabled_) return;
  spans_.push_back({name, parent, ns(start), ns(end)});
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

}  // namespace perfbench
