#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "util/log.hpp"
#include "util/thread_annotations.hpp"

namespace soslock::util {

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) threads_ = hardware_threads();
}

std::size_t ThreadPool::hardware_threads() {
  if (const char* env = std::getenv("SOSLOCK_THREADS"); env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (*end == '\0' && errno == 0 && v > 0) return static_cast<std::size_t>(v);
    log_warn("SOSLOCK_THREADS=", env, " is not a positive integer; ignoring");
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::run_all(std::size_t count,
                         const std::function<void(std::size_t)>& task) const {
  if (count == 0) return;
  const std::size_t workers = std::min(threads_, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  Mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        task(i);
      } catch (...) {
        const MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();  // the calling thread participates
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t ThreadPool::run_all_until_failure(
    std::size_t count, const std::function<bool(std::size_t)>& task) const {
  std::atomic<bool> abort_rest{false};
  std::atomic<std::size_t> first_failed{count};
  run_all(count, [&](std::size_t i) {
    if (abort_rest.load(std::memory_order_relaxed)) return;
    if (task(i)) return;
    abort_rest.store(true, std::memory_order_relaxed);
    std::size_t prev = first_failed.load();
    while (i < prev && !first_failed.compare_exchange_weak(prev, i)) {
    }
  });
  return first_failed.load();
}

}  // namespace soslock::util
