#include "common/log.h"

#include <cstdio>

namespace dyrs {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

namespace {
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
  }
  return "?";
}
}  // namespace

void Logger::write(LogLevel level, const std::string& component, const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(stderr, "[%s] %s: %s\n", level_name(level), component.c_str(), message.c_str());
}

}  // namespace dyrs
