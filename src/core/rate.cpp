#include "core/rate.hpp"

#include <cmath>
#include <optional>

#include "core/certifier_common.hpp"
#include "util/log.hpp"

namespace soslock::core {

using poly::LinExpr;
using poly::Polynomial;
using poly::PolyLin;

namespace {

/// Cap on the upper quadratic envelope M (keeps "minimize M" bounded).
constexpr double kUpperQuadraticCap = 1e6;

/// A certified quadratic envelope coefficient of V on mode q's domain:
///   lower: maximize m s.t.  V - m*|x|^2 - sigmas*g ∈ Σ,
///   upper: minimize M s.t.  M*|x|^2 - V - sigmas*g ∈ Σ.
/// nullopt when the bound cannot be certified (the envelope programs also
/// require a feasible iterate).
std::optional<double> quadratic_bound(const hybrid::HybridSystem& system, std::size_t q,
                                      const Polynomial& v, bool upper,
                                      const RateOptions& options,
                                      const sdp::SolverConfig& config, sdp::WarmStart& cache,
                                      sos::SolveStats& stats) {
  sos::SosProgram prog(system.nvars());
  prog.set_trace_regularization(options.trace_regularization);
  prog.set_sparsity(config);
  const std::string name = upper ? "M" : "m";
  const LinExpr t = prog.add_scalar(name);
  prog.add_linear_ge(t, name + " >= 0");
  prog.add_linear_ge(LinExpr(upper ? kUpperQuadraticCap : options.alpha_cap) - t,
                     name + " cap");
  PolyLin expr(upper ? -1.0 * v : v);
  PolyLin tn(system.nvars());
  const Polynomial n2 = poly::squared_norm(system.nvars(), system.nstates());
  for (const auto& [m, c] : n2.terms()) tn.add_term(m, c * t);
  if (upper) {
    expr += tn;
  } else {
    expr -= tn;
  }
  poly::MultiplierSparsity csp = sos::multiplier_plan(system.nvars(), config);
  csp.couple(expr);
  subtract_multipliers(prog, expr, system.modes()[q].domain, options.multiplier_degree,
                       upper ? "qu" : "ql", csp);
  prog.add_sos_constraint(expr, upper ? "quadratic upper" : "quadratic lower");
  if (upper) {
    prog.minimize(t);
  } else {
    prog.maximize(t);
  }
  const AuditedSolve solved = solve_and_audit(prog, config, "quadratic envelope", stats,
                                              WarmChain::through(cache, config));
  if (!solved.ok() || !solved.solved.feasible) return std::nullopt;
  return solved.solved.value(t);
}

}  // namespace

double RateResult::time_to_reach(double initial_radius, double radius) const {
  if (!(alpha > 0.0) || !(lower_quadratic > 0.0) || !(upper_quadratic > 0.0)) {
    return std::numeric_limits<double>::infinity();
  }
  const double ratio = (upper_quadratic * initial_radius * initial_radius) /
                       (lower_quadratic * radius * radius);
  return ratio <= 1.0 ? 0.0 : std::log(ratio) / alpha;
}

RateResult RateCertifier::certify(const hybrid::HybridSystem& system, std::size_t q,
                                  const Polynomial& v) const {
  RateResult result;
  if (q >= system.modes().size()) {
    result.message = "mode index out of range";
    return result;
  }

  // alpha enters -V̇ - alpha*V affinely since V is numeric here.
  sos::SosProgram prog(system.nvars());
  prog.set_trace_regularization(options_.trace_regularization);
  prog.set_sparsity(config_);
  const LinExpr alpha = prog.add_scalar("alpha");
  prog.add_linear_ge(alpha, "alpha >= 0");
  prog.add_linear_ge(LinExpr(options_.alpha_cap) - alpha, "alpha cap");

  PolyLin expr(-1.0 * v.lie_derivative(system.modes()[q].flow));
  PolyLin alpha_v(system.nvars());
  for (const auto& [m, c] : v.terms()) alpha_v.add_term(m, c * alpha);
  expr -= alpha_v;
  poly::MultiplierSparsity csp = sos::multiplier_plan(system.nvars(), config_);
  csp.couple(expr);
  subtract_multipliers(prog, expr, system.modes()[q].domain, options_.multiplier_degree,
                       "rate.dom", csp);
  subtract_multipliers(prog, expr, system.parameter_set(), options_.multiplier_degree,
                       "rate.u", csp);
  prog.add_sos_constraint(expr, "rate");
  prog.maximize(alpha);

  // Repeated-structure warm start: per-mode rate certifications share one
  // compiled shape, so each solve replays the previous iterate (the blob's
  // fingerprint rejects it when the shape drifted).
  const AuditedSolve solved = solve_and_audit(prog, config_, "rate", result.solver,
                                              WarmChain::through(rate_warm_, config_));
  result.audit = solved.audit;
  if (!solved.ok()) {
    result.message = solved.message;
    return result;
  }
  result.alpha = solved.solved.value(alpha);
  result.success = result.alpha > 0.0;

  // The upper envelope shares the lower's compiled *structure* but runs the
  // opposite objective, so the lower's optimum is the worst possible seed
  // for it (the fingerprint cannot tell them apart — it hashes structure,
  // not objective values). Each family therefore keeps its own cache.
  const std::optional<double> lower =
      quadratic_bound(system, q, v, false, options_, config_, lower_warm_, result.solver);
  const std::optional<double> upper =
      quadratic_bound(system, q, v, true, options_, config_, upper_warm_, result.solver);
  result.lower_quadratic = lower.value_or(0.0);
  result.upper_quadratic = upper.value_or(0.0);
  util::log_info("rate: alpha=", result.alpha, " m=", result.lower_quadratic,
                 " M=", result.upper_quadratic);
  return result;
}

}  // namespace soslock::core
