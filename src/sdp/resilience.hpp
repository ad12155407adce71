#pragma once
// Retry/fallback driver around the solver backends. One call:
//
//   sdp::SolverConfig config;
//   sdp::Solution sol = sdp::resilient_solve(problem, context, config);
//
// resolves config.backend ("auto" included), runs it, classifies the result,
// and when it is unusable applies a fixed recovery policy: one retry of the
// same backend with admm.rho and ipm.warm_start_margin scaled by 1.5 (for
// transient/numerical failures only), then a fallback to "ipm" when the
// primary was another backend, each attempt warm-started from the best
// usable iterate so far. A backend that throws (a deep linear-algebra
// std::logic_error, an injected fault) is converted to a typed
// SolveStatus::Faulted result instead of unwinding through the caller. Every
// recovery step lands on Solution::recoveries, so "this certificate needed
// two attempts" is auditable telemetry rather than a lost log line. The
// "auto" meta-backend routes through this.
#include "sdp/problem.hpp"
#include "sdp/solver.hpp"

namespace soslock::sdp {

/// Is this result too poor to hand to certificate extraction? Certified
/// infeasibility is a classification (not a failure), Interrupted means the
/// caller's budget — not the backend — gave out, and a best-effort iterate
/// is usable when its residuals/gap are near tolerance. Diverged/Faulted are
/// always unusable.
bool solve_unusable(const Solution& solution);

/// Solve on config.backend under the recovery policy above. The caller's
/// context (budget, cancellation, warm start) applies to every
/// attempt; context.warm_start is restored to the caller's pointer before
/// returning or throwing.
Solution resilient_solve(const Problem& problem, SolveContext& context,
                         const SolverConfig& config);

}  // namespace soslock::sdp
