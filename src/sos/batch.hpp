#pragma once
// Batched parallel SOS solving. Per-mode SOS programs in the verification
// pipeline (level-curve maximisation, escape certificates, decoupled
// Lyapunov synthesis) are independent SDPs, so they can be dispatched onto a
// thread pool instead of being solved one after another. All SDP data is
// built per task and the backends are stateless, so the only shared state is
// the result slots (one per task, disjoint).
//
// The pool itself is util::ThreadPool (shared with the ADMM's per-block PSD
// projections); BatchSolver is a thin SOS-aware wrapper that also
// rebalances SolverConfig::threads across its workers so batched ADMM
// solves do not oversubscribe the machine.
#include <cstddef>
#include <functional>
#include <vector>

#include "sos/program.hpp"
#include "util/thread_pool.hpp"

namespace soslock::sos {

class BatchSolver {
 public:
  /// `threads` = worker cap; 0 uses the hardware count.
  explicit BatchSolver(std::size_t threads = 0) : pool_(threads) {}

  /// Worker cap after resolving 0 to the hardware count.
  std::size_t threads() const { return pool_.threads(); }

  /// Run `count` independent tasks, task(i) for i in [0, count); blocks until
  /// all complete. Tasks run on up to threads() workers (inline when the cap
  /// or count is 1). The first task exception, if any, is rethrown here.
  void run_all(std::size_t count, const std::function<void(std::size_t)>& task) const {
    pool_.run_all(count, task);
  }

  /// run_all with early abort: a task returning false skips every task that
  /// has not yet started (in-flight tasks complete), keeping failure paths as
  /// cheap as a sequential early exit. Returns the lowest failed index, or
  /// `count` when every executed task succeeded.
  std::size_t run_all_until_failure(std::size_t count,
                                    const std::function<bool(std::size_t)>& task) const {
    return pool_.run_all_until_failure(count, task);
  }

  /// Solve independent programs concurrently; results in input order. Each
  /// solve gets its own backend instance built from `config`, with
  /// config.threads divided across the batch workers so nested backend
  /// parallelism never oversubscribes (see effective_config).
  std::vector<SolveResult> solve_all(const std::vector<const SosProgram*>& programs,
                                     const sdp::SolverConfig& config = {}) const;

  /// The per-solve config solve_all hands each worker: SolverConfig::threads
  /// (0 = hardware) divided by the number of concurrent batch workers,
  /// floored at 1. Exposed for tests.
  sdp::SolverConfig effective_config(const sdp::SolverConfig& config,
                                     std::size_t batch_size) const;

 private:
  util::ThreadPool pool_;
};

}  // namespace soslock::sos
