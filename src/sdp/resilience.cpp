#include "sdp/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/log.hpp"

namespace soslock::sdp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The one same-backend retry scales the ADMM rho and the IPM warm-start
/// margin by this factor: a deterministic perturbation of the failing
/// tuning, no RNG, so a retried solve is reproducible.
constexpr double kRetryScale = 1.5;

/// Typed reason string for the recovery records, e.g.
/// "Diverged(phase=primal-residual)".
std::string failure_reason(const Solution& sol) {
  std::string reason = to_string(sol.status);
  if (!sol.faulted_phase.empty()) reason += "(phase=" + sol.faulted_phase + ")";
  return reason;
}

/// Iterate quality for the better-of-two handover; lower is better.
/// Diverged/Faulted iterates carry no trustworthy state and rank last.
double quality(const Solution& sol) {
  if (sol.status == SolveStatus::Diverged || sol.status == SolveStatus::Faulted)
    return kInf;
  const double q = sol.primal_residual + sol.gap;
  return std::isfinite(q) ? q : kInf;
}

/// Retries help transient and numerical failures; a deterministic stall
/// (MaxIterations with bad residuals) replays identically, so it escalates
/// straight to the fallback.
bool retryable(const Solution& sol) {
  return sol.status == SolveStatus::Diverged || sol.status == SolveStatus::Faulted ||
         sol.status == SolveStatus::NumericalProblem;
}

/// One backend attempt that never leaks an exception: a throwing backend
/// becomes a typed Faulted result the recovery can act on. Backend *lookup*
/// stays outside the net — an unknown name is a configuration error, not a
/// solver failure, and must keep throwing std::invalid_argument.
Solution attempt(const std::string& backend_name, const SolverConfig& config,
                 const Problem& problem, SolveContext& context) {
  const std::unique_ptr<SolverBackend> backend = make_solver(backend_name, config);
  try {
    return backend->solve(problem, context);
  } catch (const std::exception& e) {
    util::log_info("solver ", backend_name, " threw (", e.what(),
                   "); classifying as Faulted");
    Solution sol;
    sol.status = SolveStatus::Faulted;
    sol.backend = backend_name;
    sol.faulted_phase = e.what();
    return sol;
  }
}

}  // namespace

bool solve_unusable(const Solution& solution) {
  switch (solution.status) {
    case SolveStatus::Optimal:
    case SolveStatus::PrimalInfeasible:
    case SolveStatus::DualInfeasible:
    case SolveStatus::Interrupted:  // budget/cancel: a retry would also be cut short
      return false;
    case SolveStatus::MaxIterations:
    case SolveStatus::NumericalProblem:
      return solution.primal_residual > 1e-5 || solution.dual_residual > 1e-4 ||
             solution.gap > 5e-3;
    case SolveStatus::Diverged:
    case SolveStatus::Faulted:
      return true;
  }
  return false;
}

Solution resilient_solve(const Problem& problem, SolveContext& context,
                         const SolverConfig& config) {
  const std::string primary =
      config.backend == "auto" ? auto_backend_for(problem, config) : config.backend;

  Solution sol = attempt(primary, config, problem, context);
  if (!solve_unusable(sol) || context.interrupted()) return sol;

  // The recovery steps. `sol` always carries the cumulative iteration/time
  // telemetry; `best` tracks the highest-quality unusable iterate for the
  // final handover (and donates the warm start of every recovery attempt).
  std::vector<RecoveryRecord> records = std::move(sol.recoveries);
  sol.recoveries.clear();
  Solution best = sol;
  int attempt_no = 0;
  WarmStart rescue;
  const WarmStart* caller_warm = context.warm_start;

  const auto run_recovery = [&](const char* action, const std::string& name,
                                const SolverConfig& cfg) {
    ++attempt_no;
    RecoveryRecord rec;
    rec.action = action;
    rec.from = primary;
    rec.to = name;
    rec.reason = failure_reason(sol);
    rec.attempt = attempt_no;
    util::log_info("solver resilience: ", rec.action, " #", attempt_no, " ",
                   rec.from, " -> ", rec.to, " after ", rec.reason);
    records.push_back(std::move(rec));
    // Warm-start the attempt from the best usable iterate so far, honoring
    // the cold-start A/B switch; a divergent/faulted iterate never donates.
    rescue = WarmStart{};
    if (config.warm_start && quality(best) < kInf) rescue = make_warm_start(best, 0);
    context.warm_start = rescue.empty() ? caller_warm : &rescue;
    Solution next;
    try {
      next = attempt(name, cfg, problem, context);
    } catch (...) {
      context.warm_start = caller_warm;
      throw;
    }
    context.warm_start = caller_warm;
    next.iterations += sol.iterations;
    next.solve_seconds += sol.solve_seconds;
    for (RecoveryRecord& r : next.recoveries) records.push_back(std::move(r));
    next.recoveries.clear();
    sol = std::move(next);
    if (quality(sol) < quality(best)) best = sol;
  };

  if (retryable(sol) && !context.interrupted()) {
    SolverConfig retry_config = config;
    retry_config.admm.rho = std::clamp(config.admm.rho * kRetryScale, 1e-6, 1e6);
    retry_config.ipm.warm_start_margin =
        std::clamp(config.ipm.warm_start_margin * kRetryScale, 1e-6, 0.9);
    run_recovery("retry", primary, retry_config);
  }

  // The high-accuracy backend is the fallback of every other one.
  if (primary != "ipm" && solve_unusable(sol) && !context.interrupted())
    run_recovery("fallback", "ipm", config);

  // Every attempt failed: hand over the best-quality iterate seen, with the
  // cumulative telemetry, rather than whatever the last backend produced.
  if (solve_unusable(sol) && quality(best) < quality(sol)) {
    best.iterations = sol.iterations;
    best.solve_seconds = sol.solve_seconds;
    sol = std::move(best);
  }
  sol.recoveries = std::move(records);
  return sol;
}

}  // namespace soslock::sdp
