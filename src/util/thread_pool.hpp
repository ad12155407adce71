#pragma once
// Shared fork-join worker pool used by the batched per-mode stages of the
// core certifiers, the sweep lanes, and the ADMM's per-block PSD
// projections, the one intra-solve fan-out (the IPM runs on its caller's
// thread). Living in util keeps the layering clean: sdp must not depend on
// sos just to borrow its threads.
//
// Design notes:
//  * Fork-join per call, not a persistent task queue: every run_all spawns
//    its workers and joins them before returning. That makes nested
//    submission trivially safe (an inner run_all owns its own threads; no
//    shared queue to deadlock on) at the cost of thread-spawn overhead that
//    is negligible next to the O(n^3) work items this pool carries.
//  * A pool capped at 1 thread (or a single-item call) runs inline on the
//    caller's thread — zero overhead, exact sequential semantics. This is
//    the deterministic baseline the multi-threaded paths are tested against.
//  * Work is claimed via an atomic counter (dynamic load balancing); the
//    first task exception is captured and rethrown on the calling thread
//    after the join.
#include <cstddef>
#include <functional>

namespace soslock::util {

class ThreadPool {
 public:
  /// `threads` = worker cap; 0 resolves to hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);

  /// Worker cap after resolving 0 to the hardware count.
  std::size_t threads() const { return threads_; }

  /// std::thread::hardware_concurrency() with the 0-means-unknown case
  /// resolved to 1. Overridable via the SOSLOCK_THREADS environment variable
  /// (a positive integer; any other value is ignored with a warning) — the
  /// sanitizer CI pins the fan-out to 4 with it so TSan sees the parallel
  /// paths regardless of runner core count.
  static std::size_t hardware_threads();

  /// Run `count` independent tasks, task(i) for i in [0, count); blocks until
  /// all complete. Tasks run on up to threads() workers (inline when the cap
  /// or count is 1). The first task exception, if any, is rethrown here.
  void run_all(std::size_t count, const std::function<void(std::size_t)>& task) const;

  /// run_all with early abort: a task returning false skips every task that
  /// has not yet started (in-flight tasks complete), keeping failure paths as
  /// cheap as a sequential early exit. Returns the lowest failed index, or
  /// `count` when every executed task succeeded.
  std::size_t run_all_until_failure(std::size_t count,
                                    const std::function<bool(std::size_t)>& task) const;

 private:
  std::size_t threads_;
};

}  // namespace soslock::util
