#include "core/rate.hpp"

#include <cmath>

#include "poly/sparsity.hpp"
#include "util/log.hpp"

namespace soslock::core {

using hybrid::SemialgebraicSet;
using poly::LinExpr;
using poly::Monomial;
using poly::Polynomial;
using poly::PolyLin;

namespace {

void add_set_multipliers(sos::SosProgram& prog, PolyLin& expr, const SemialgebraicSet& set,
                         unsigned degree, const std::string& tag,
                         const poly::MultiplierSparsity& csp) {
  for (std::size_t k = 0; k < set.constraints().size(); ++k) {
    const PolyLin sigma = prog.add_sos_poly(
        csp.multiplier_basis(set.constraints()[k], degree), tag + std::to_string(k));
    expr -= sigma * set.constraints()[k];
  }
}

/// Maximize t subject to (sign ? v - t*n2 : t_cap... ) via bisection-free
/// direct SDP: expr(t) must stay affine in t.
struct ScalarBound {
  bool success = false;
  double value = 0.0;
  sos::SolveStats solver;
};

/// maximize t s.t. v - t*|x|^2 - sigmas*g ∈ Σ      (lower quadratic bound)
ScalarBound quadratic_lower(const hybrid::HybridSystem& system, std::size_t q,
                            const Polynomial& v, const RateOptions& options,
                            const sdp::SolverConfig& config, const sdp::WarmStart* warm,
                            sdp::WarmStart* warm_out) {
  sos::SosProgram prog(system.nvars());
  prog.set_trace_regularization(options.trace_regularization);
  prog.set_sparsity(config);
  const LinExpr t = prog.add_scalar("m");
  prog.add_linear_ge(t, "m >= 0");
  prog.add_linear_ge(LinExpr(options.alpha_cap) - t, "m cap");
  PolyLin expr(v);
  PolyLin tn(system.nvars());
  const Polynomial n2 = poly::squared_norm(system.nvars(), system.nstates());
  for (const auto& [m, c] : n2.terms()) tn.add_term(m, c * t);
  expr -= tn;
  poly::MultiplierSparsity csp = sos::multiplier_plan(system.nvars(), config);
  csp.couple(expr);
  add_set_multipliers(prog, expr, system.modes()[q].domain, options.multiplier_degree, "ql",
                      csp);
  prog.add_sos_constraint(expr, "quadratic lower");
  prog.maximize(t);
  const sos::SolveResult r = prog.solve(config, warm);
  if (warm_out != nullptr && !r.warm.empty()) *warm_out = r.warm;
  ScalarBound out;
  out.solver.absorb(r);
  if (!r.feasible || !sos::audit(prog, r).ok) return out;
  out.success = true;
  out.value = r.value(t);
  return out;
}

/// minimize T s.t. T*|x|^2 - v - sigmas*g ∈ Σ      (upper quadratic bound)
ScalarBound quadratic_upper(const hybrid::HybridSystem& system, std::size_t q,
                            const Polynomial& v, const RateOptions& options,
                            const sdp::SolverConfig& config, const sdp::WarmStart* warm,
                            sdp::WarmStart* warm_out) {
  sos::SosProgram prog(system.nvars());
  prog.set_trace_regularization(options.trace_regularization);
  prog.set_sparsity(config);
  const LinExpr t = prog.add_scalar("M");
  prog.add_linear_ge(t, "M >= 0");
  prog.add_linear_ge(LinExpr(1e6) - t, "M cap");
  PolyLin expr(-1.0 * v);
  PolyLin tn(system.nvars());
  const Polynomial n2 = poly::squared_norm(system.nvars(), system.nstates());
  for (const auto& [m, c] : n2.terms()) tn.add_term(m, c * t);
  expr += tn;
  poly::MultiplierSparsity csp = sos::multiplier_plan(system.nvars(), config);
  csp.couple(expr);
  add_set_multipliers(prog, expr, system.modes()[q].domain, options.multiplier_degree, "qu",
                      csp);
  prog.add_sos_constraint(expr, "quadratic upper");
  prog.minimize(t);
  const sos::SolveResult r = prog.solve(config, warm);
  if (warm_out != nullptr && !r.warm.empty()) *warm_out = r.warm;
  ScalarBound out;
  out.solver.absorb(r);
  if (!r.feasible || !sos::audit(prog, r).ok) return out;
  out.success = true;
  out.value = r.value(t);
  return out;
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
  add_set_multipliers(prog, expr, system.modes()[q].domain, options_.multiplier_degree,
                      "rate.dom", csp);
  add_set_multipliers(prog, expr, system.parameter_set(), options_.multiplier_degree,
                      "rate.u", csp);
  prog.add_sos_constraint(expr, "rate");
  prog.maximize(alpha);

  // Repeated-structure warm start: per-mode rate certifications share one
  // compiled shape, so each solve replays the previous iterate (the blob's
  // fingerprint rejects it when the shape drifted).
  const bool reuse = config_.warm_start;
  const sos::SolveResult solved =
      prog.solve(config_, reuse && !rate_warm_.empty() ? &rate_warm_ : nullptr);
  if (reuse && !solved.warm.empty()) rate_warm_ = solved.warm;
  result.solver.absorb(solved);
  if (sos::solve_hard_failed(solved)) {
    result.message = "rate SOS infeasible (" + sdp::to_string(solved.status) + ")";
    return result;
  }
  result.audit = sos::audit(prog, solved);
  if (!result.audit.ok) {
    result.message = "rate certificate failed audit";
    return result;
  }
  result.alpha = solved.value(alpha);
  result.success = result.alpha > 0.0;

  const ScalarBound lower =
      quadratic_lower(system, q, v, options_, config_,
                      reuse && !lower_warm_.empty() ? &lower_warm_ : nullptr,
                      reuse ? &lower_warm_ : nullptr);
  // The upper envelope shares the lower's compiled *structure* but runs the
  // opposite objective, so the lower's optimum is the worst possible seed
  // for it (the fingerprint cannot tell them apart — it hashes structure,
  // not objective values). Each family therefore keeps its own cache.
  const ScalarBound upper =
      quadratic_upper(system, q, v, options_, config_,
                      reuse && !upper_warm_.empty() ? &upper_warm_ : nullptr,
                      reuse ? &upper_warm_ : nullptr);
  result.solver.merge(lower.solver);
  result.solver.merge(upper.solver);
  if (lower.success) result.lower_quadratic = lower.value;
  if (upper.success) result.upper_quadratic = upper.value;
  util::log_info("rate: alpha=", result.alpha, " m=", result.lower_quadratic,
                 " M=", result.upper_quadratic);
  return result;
}

}  // namespace soslock::core
