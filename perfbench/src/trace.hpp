#pragma once
// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own files, around calls into the library's public
// API, and written out once at the end as Chrome trace-event JSON (opens in
// chrome://tracing or Perfetto). Every span carries the id of the request it
// belongs to; the layer is the name's prefix up to the first '.'.
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;  // "<layer>.<what>", e.g. "sdp.lower"
  double start_s = 0.0;  // since the tracer's origin
  double dur_s = 0.0;
  long request = 0;
  std::size_t thread = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Start a new request: spans recorded from now on carry its id.
  long begin_request() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ++request_;
  }

  /// Thread-safe: sweep lanes record from their worker threads.
  void record(std::string name, Clock::time_point start, Clock::time_point end) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = threads_.emplace(std::this_thread::get_id(), threads_.size());
    spans_.push_back(Span{std::move(name), seconds_between(origin_, start),
                          seconds_between(start, end), request_, it->second});
  }

  std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Write every span as a Chrome trace-event "X" (complete) event.
  bool write_chrome(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::size_t> threads_;
  long request_ = 0;
};

/// RAII span; a null tracer makes it a plain stopwatch, so traced and
/// untraced requests run the same code.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name)
      : tracer_(tracer), name_(std::move(name)), start_(Clock::now()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { stop(); }

  /// End the span (idempotent); returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      end_ = Clock::now();
      stopped_ = true;
      if (tracer_ != nullptr) tracer_->record(name_, start_, end_);
    }
    return seconds_between(start_, end_);
  }

 private:
  Tracer* tracer_;
  std::string name_;
  Clock::time_point start_, end_;
  bool stopped_ = false;
};

}  // namespace perfbench
