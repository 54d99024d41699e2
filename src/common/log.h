// Minimal logger for the conditions worth a line on stderr.
//
// The simulator is single-threaded; the real-time runtime (src/rt) logs from
// multiple threads, so emission takes a lock. There are two levels and no
// threshold: every Warn and Error line prints. Routine progress goes to the
// trace and the metrics registry, not here.
#pragma once

#include <mutex>
#include <sstream>
#include <string>

namespace dyrs {

enum class LogLevel { Warn, Error };

class Logger {
 public:
  static Logger& instance();

  /// Writes one formatted line to stderr. Thread-safe.
  void write(LogLevel level, const std::string& component, const std::string& message);

 private:
  Logger() = default;
  std::mutex mu_;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, const char* component) : level_(level), component_(component) {}
  ~LogLine() { Logger::instance().write(level_, component_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* component_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace dyrs

// Usage: DYRS_LOG(Warn, "oracle") << "node " << n << " out of memory";
#define DYRS_LOG(level, component) ::dyrs::detail::LogLine(::dyrs::LogLevel::level, component)
