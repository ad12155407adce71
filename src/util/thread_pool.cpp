#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace soslock::util {

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) threads_ = hardware_threads();
}

std::size_t ThreadPool::hardware_threads() {
  if (const char* env = std::getenv("SOSLOCK_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::run_all_indexed(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& task) const {
  if (count == 0) return;
  const std::size_t workers = std::min(threads_, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(0, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  Mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&](std::size_t worker_id) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        task(worker_id, i);
      } catch (...) {
        const MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker, t);
  worker(0);  // the calling thread participates
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::run_all(std::size_t count,
                         const std::function<void(std::size_t)>& task) const {
  run_all_indexed(count, [&task](std::size_t, std::size_t i) { task(i); });
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
