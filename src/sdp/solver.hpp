#pragma once
// SDP solver-backend API. Every SOS query in the verification pipeline
// routes through this interface, so solvers can be swapped (or auto-selected
// per problem) without touching the SOS or core layers:
//
//   auto solver = sdp::make_solver("admm");       // or "ipm", "auto"
//   sdp::SolveContext ctx;
//   ctx.time_budget_seconds = 5.0;
//   sdp::Solution sol = solver->solve(problem, ctx);
//
// "auto" is a meta-backend that picks per problem by block size (large Gram
// blocks favor the first-order backend, whose per-iteration cost is an
// eigendecomposition instead of a Schur-complement assembly).
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sdp/options.hpp"
#include "sdp/problem.hpp"
#include "util/timer.hpp"

namespace soslock::sdp {

/// Exported solver state for warm-starting a structurally identical solve
/// (same structure_fingerprint — see sdp/structure.hpp; coefficient *values*
/// may differ, which is exactly the advection/level-curve retry pattern).
/// SosProgram-level blobs live in the base (pre-lowering, unequilibrated)
/// space — y is the multiplier of the rows as compiled, x/z have the
/// original cone shapes — and are re-lowered per clique by
/// sdp::remap_warm_start, so one blob replays across re-compiles with
/// different row scales or decomposition parameters. Backend-level blobs
/// (SolveContext::warm_start) are in the space of the problem as passed to
/// the backend; native decomposed-cone overlap multipliers are deliberately
/// not part of either (they restart at zero on restore).
struct WarmStart {
  std::uint64_t fingerprint = 0;   // structure_fingerprint of the source
  std::vector<linalg::Matrix> x;   // primal PSD blocks
  std::vector<linalg::Matrix> z;   // dual slacks
  linalg::Vector y;                // equality multipliers (original row space)
  linalg::Vector w;                // free variables

  bool empty() const { return x.empty() && y.empty(); }
  /// Does the blob's shape fit `problem`? (Block counts, and every x and z
  /// block square of its cone's size; callers that track fingerprints should
  /// also compare those.)
  bool fits(const Problem& problem) const;
};

/// Snapshot the iterate of a finished solve (any status that carries state,
/// including Interrupted and MaxIterations best iterates).
WarmStart make_warm_start(const Solution& solution, std::uint64_t fingerprint);

/// Per-iteration progress snapshot delivered to SolveContext::on_iteration.
struct IterationInfo {
  int iteration = 0;
  double mu = 0.0;               // complementarity (0 for first-order backends)
  double primal_residual = 0.0;  // relative
  double dual_residual = 0.0;    // relative
  double gap = 0.0;              // relative duality gap
};

/// Runtime controls threaded through a solve: wall-clock budget, cooperative
/// cancellation, and telemetry. Backends poll interrupted() once per
/// iteration and return their best iterate (status Interrupted) when it
/// fires. The budget clock starts at construction; call arm() to restart it
/// when reusing one context across solves.
class SolveContext {
 public:
  /// Wall-clock budget in seconds; <= 0 disables the budget.
  double time_budget_seconds = 0.0;
  /// Cooperative cancellation flag owned by the caller (may be null).
  std::atomic<bool>* cancel = nullptr;
  /// Invoked once per iteration from the solving thread (may be empty).
  std::function<void(const IterationInfo&)> on_iteration;
  /// Optional warm start (caller-owned, must outlive the solve). Both
  /// backends restore it when it fits the problem; an ill-fitting blob is
  /// silently ignored (cold start). The caller is responsible for only
  /// passing blobs whose structure fingerprint matches the problem being
  /// solved.
  const WarmStart* warm_start = nullptr;

  /// Restart the budget clock.
  void arm() { timer_.reset(); }
  double elapsed_seconds() const { return timer_.seconds(); }
  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  bool out_of_budget() const {
    return time_budget_seconds > 0.0 && timer_.seconds() > time_budget_seconds;
  }
  /// True when the backend should stop and return its best iterate.
  bool interrupted() const { return cancelled() || out_of_budget(); }
  void notify(const IterationInfo& info) const {
    if (on_iteration) on_iteration(info);
  }

 private:
  util::Timer timer_;
};

class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// Solve (a copy of) the problem under the given runtime context. The
  /// returned Solution carries the backend name and wall-clock telemetry.
  virtual Solution solve(const Problem& problem, SolveContext& context) const = 0;

  virtual std::string name() const = 0;

  /// Convenience: solve with a fresh default context.
  Solution solve(const Problem& problem) const {
    SolveContext context;
    return solve(problem, context);
  }
};

/// Solver configuration of one verification: every core certifier takes it
/// beside its certificate options, and PipelineOptions::solver hands the one
/// copy to every stage. `backend` names the backend; the shared
/// tolerance/max_iterations fields override the per-backend ones, and
/// max_iterations = 0 keeps each backend's own default (the sensible budgets
/// differ by two orders of magnitude between second- and first-order
/// methods).
struct SolverConfig {
  std::string backend = "auto";   // "ipm" | "admm" | "auto"
  double tolerance = 0.0;         // 0 = backend default
  int max_iterations = 0;         // 0 = backend default
  double time_budget_seconds = 0.0;  // per-solve wall-clock budget (0 = none)
  /// Let the retry/sweep loops in the core verification steps replay the
  /// previous iterate into the next structurally identical solve (see
  /// WarmStart). Off = every solve starts cold (the bench A/B switch).
  bool warm_start = true;
  /// The thread budget of a verification. 0 = hardware count; 1 (default)
  /// = serial. The batched per-mode stages (level curves, escape, decoupled
  /// Lyapunov synthesis) run on a pool of this many workers, and each
  /// concurrent solve gets share_threads(config, workers) for the ADMM's
  /// per-iteration PSD projections (the IPM runs on its caller's thread),
  /// so nested parallelism never oversubscribes. Parallel solves are
  /// deterministic: each block's projection writes only its own entries, so
  /// iterates are bit-identical across thread counts.
  std::size_t threads = 1;
  /// "auto": smallest max-block-size at which the first-order backend wins.
  std::size_t auto_block_threshold = 80;
  /// Sparsity exploitation of the SOS compiler / SDP conversion layer. The
  /// core certifiers forward this to SosProgram::set_sparsity before adding
  /// constraints (Gram clique splitting happens at constraint-add time).
  SparsityOptions sparsity = SparsityOptions::Off;
  ChordalOptions chordal;

  /// Backend-specific tuning (shared fields above win). The recovery
  /// retry of sdp::resilient_solve perturbs admm.rho and
  /// ipm.warm_start_margin.
  IpmOptions ipm;
  AdmmOptions admm;

  /// Backend options with the shared overrides applied.
  IpmOptions resolved_ipm() const;
  AdmmOptions resolved_admm() const;
};

/// The config each of `workers` concurrent solves gets: `threads` (0 =
/// hardware count) divided by `workers`, floored at 1.
SolverConfig share_threads(const SolverConfig& config, std::size_t workers);

/// Build a backend by name ("ipm", "admm" or "auto"). Throws
/// std::invalid_argument on any other name.
std::unique_ptr<SolverBackend> make_solver(const std::string& name,
                                           const SolverConfig& config = {});
/// Build the backend named by config.backend.
std::unique_ptr<SolverBackend> make_solver(const SolverConfig& config);

/// The backend "auto" would delegate to for this problem (exposed so the
/// heuristic itself is testable without running a solve).
std::string auto_backend_for(const Problem& problem, const SolverConfig& config);

}  // namespace soslock::sdp
