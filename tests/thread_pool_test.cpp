// Tests for the shared fork-join worker pool (util/thread_pool.hpp): the
// substrate under the batched per-mode stages, the sweep lanes and the ADMM's
// PSD-projection fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace soslock::util {
namespace {

TEST(ThreadPool, ResolvesZeroToHardware) {
  const ThreadPool pool(0);
  EXPECT_GE(pool.threads(), 1u);
  EXPECT_EQ(pool.threads(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, EnvVariableOverridesHardwareCount) {
  // SOSLOCK_THREADS pins the fan-out (the TSan CI job uses 4 so the
  // parallel paths run regardless of runner core count); anything that is
  // not a whole positive integer falls back to the hardware count.
  ASSERT_EQ(setenv("SOSLOCK_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::hardware_threads(), 3u);
  EXPECT_EQ(ThreadPool(0).threads(), 3u);
  ASSERT_EQ(setenv("SOSLOCK_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
  ASSERT_EQ(setenv("SOSLOCK_THREADS", "nope", 1), 0);
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
  ASSERT_EQ(unsetenv("SOSLOCK_THREADS"), 0);
  // Trailing garbage and fractions are rejected whole, not read up to the
  // first bad character; the last value's prefix is never the hardware
  // count, so it tells the two apart on any host.
  const std::size_t hw = ThreadPool::hardware_threads();
  for (const std::string& bad : {std::string("4x"), std::string("2.5"),
                                 std::to_string(hw + 1) + "x"}) {
    ASSERT_EQ(setenv("SOSLOCK_THREADS", bad.c_str(), 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), hw) << bad;
  }
  ASSERT_EQ(unsetenv("SOSLOCK_THREADS"), 0);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    const ThreadPool pool(threads);
    constexpr std::size_t kCount = 257;
    std::vector<std::atomic<int>> hits(kCount);
    pool.run_all(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ZeroCountIsNoop) {
  const ThreadPool pool(4);
  bool ran = false;
  pool.run_all(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, InlineModeRunsOnCallingThreadInOrder) {
  // A 1-thread pool (and a 1-item call on any pool) must run inline:
  // sequential order, same thread as the caller.
  const ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_all(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // safe: inline implies no concurrency
  });
  const std::vector<std::size_t> expected{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);

  const ThreadPool wide(8);
  wide.run_all(1, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  // Fork-join per call: an inner run_all inside a task owns its own threads,
  // so nesting must complete (a shared-queue pool could deadlock here).
  const ThreadPool outer(3);
  const ThreadPool inner(2);
  std::atomic<int> total{0};
  outer.run_all(6, [&](std::size_t) {
    inner.run_all(5, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 30);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  for (std::size_t threads : {1u, 4u}) {
    const ThreadPool pool(threads);
    std::atomic<int> completed{0};
    try {
      pool.run_all(16, [&](std::size_t i) {
        if (i == 7) throw std::runtime_error("task 7 failed");
        completed.fetch_add(1);
      });
      FAIL() << "expected exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 7 failed");
    }
    // Every non-throwing task that started still completed (join semantics).
    EXPECT_LE(completed.load(), 15);
  }
}

TEST(ThreadPool, UntilFailureReturnsLowestFailedIndex) {
  const ThreadPool pool(4);
  const std::size_t failed =
      pool.run_all_until_failure(100, [&](std::size_t i) { return i != 42 && i != 90; });
  EXPECT_EQ(failed, 42u);
  const std::size_t ok = pool.run_all_until_failure(10, [](std::size_t) { return true; });
  EXPECT_EQ(ok, 10u);
}

}  // namespace
}  // namespace soslock::util
