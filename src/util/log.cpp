#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace soslock::util {
namespace {

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::Error: return "ERROR";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Trace: return "TRACE";
  }
  return "?";
}

LogLevel level_from_env() {
  const char* env = std::getenv("SOSLOCK_LOG");
  if (env == nullptr) return LogLevel::Warn;
  if (std::strcmp(env, "error") == 0) return LogLevel::Error;
  if (std::strcmp(env, "warn") == 0) return LogLevel::Warn;
  if (std::strcmp(env, "info") == 0) return LogLevel::Info;
  if (std::strcmp(env, "debug") == 0) return LogLevel::Debug;
  if (std::strcmp(env, "trace") == 0) return LogLevel::Trace;
  // Straight to log_line: the threshold this initializes does not exist yet.
  log_line(LogLevel::Warn, std::string("SOSLOCK_LOG=") + env +
                           " is not one of error|warn|info|debug|trace; using warn");
  return LogLevel::Warn;
}

std::atomic<LogLevel> g_level{level_from_env()};

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_line(LogLevel level, const std::string& msg) {
  // One fprintf call per line: atomic enough for interleaved worker output.
  std::fprintf(stderr, "[soslock %s] %s\n", tag(level), msg.c_str());
}

}  // namespace soslock::util
