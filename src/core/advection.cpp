#include "core/advection.hpp"

#include <cmath>

#include "core/certifier_common.hpp"
#include "core/lyapunov.hpp"

namespace soslock::core {

using poly::Monomial;
using poly::Polynomial;
using poly::PolyLin;

AdvectionStepResult AdvectionEngine::step(const Polynomial& b_prev) const {
  double eps = options_.eps;
  AdvectionStepResult last;
  sos::SolveStats attempts;  // telemetry across the eps/lambda ladder
  for (int attempt = 0; attempt <= options_.eps_retries; ++attempt) {
    // Inner ladder over the constant preimage multiplier of condition (B).
    double lambda = 1.0;
    for (int lam_try = 0; lam_try < 3; ++lam_try) {
      last = step_with_eps(b_prev, eps, lambda);
      attempts.merge(last.solver);
      last.solver = attempts;
      if (last.success) break;
      lambda *= std::max(1.5, options_.preimage_multiplier);
    }
    if (last.success) {
      last.eps_used = eps;
      // Canonical rescale: b(0) = -origin_normalization (set-preserving).
      const double b0 = last.next.eval(linalg::Vector(system_.nvars(), 0.0));
      if (b0 < -1e-9) {
        last.next *= options_.origin_normalization / (-b0);
      }
      return last;
    }
    eps *= 2.0;
  }
  return last;
}

AdvectionStepResult AdvectionEngine::step_with_eps(const Polynomial& b_prev, double eps,
                                                   double lambda) const {
  AdvectionStepResult result;
  const std::size_t nstates = system_.nstates();
  const std::size_t nvars = system_.nvars();
  const double h = options_.h;
  const double gamma = options_.gamma;
  const double kappa = options_.curvature_fraction * gamma;

  sos::SosProgram prog(nvars);
  prog.set_trace_regularization(options_.trace_regularization);
  prog.set_sparsity(config_);

  // Unknown advected polynomial over the states (constant term included).
  const std::vector<Monomial> support =
      state_monomials(nvars, nstates, options_.set_degree, 0);
  const PolyLin b_next = prog.add_poly(support, "b");

  // Origin stays strictly inside: b_next(0) <= -origin_margin.
  prog.add_linear_ge(-b_next.coefficient(Monomial(nvars)) -
                         poly::LinExpr(options_.origin_margin),
                     "origin inside");

  // Coefficient box (keeps the tightness objective bounded).
  for (const auto& [m, coeff] : b_next.terms()) {
    prog.add_linear_ge(poly::LinExpr(options_.coeff_cap) - coeff, "coeff cap+");
    prog.add_linear_ge(coeff + poly::LinExpr(options_.coeff_cap), "coeff cap-");
  }

  poly::MultiplierSparsity csp = sos::multiplier_plan(nvars, config_);
  const unsigned deg_sigma = options_.multiplier_degree;
  const hybrid::SemialgebraicSet& params = system_.parameter_set();

  // Advection data per mode, built up front so the csp plan couples *every*
  // mode's target before the first multiplier basis is drawn from it
  // (clique bases must come from the full csp graph, not an
  // order-dependent prefix).
  std::vector<PolyLin> tb_all, r_all;
  tb_all.reserve(system_.modes().size());
  r_all.reserve(system_.modes().size());
  csp.couple(PolyLin(b_prev));
  for (std::size_t q = 0; q < system_.modes().size(); ++q) {
    const auto& mode = system_.modes()[q];

    // First-order Taylor expansion of the backward advection
    // (E_{-h} b)(x) = b(Phi_h(x)) ~ b + h * grad(b)·f_q.
    PolyLin tb = b_next + h * b_next.lie_derivative(mode.flow);

    // Second-order term of b(Phi_h(x)):
    // R = (h^2/2) * (f' Hess(b) f + grad(b)·(Jf f)).
    PolyLin r(nvars);
    for (std::size_t i = 0; i < nstates; ++i) {
      const PolyLin di = b_next.derivative(i);
      for (std::size_t j = 0; j < nstates; ++j) {
        const PolyLin dij = di.derivative(j);
        if (dij.is_zero()) continue;
        r += dij * (mode.flow[i] * mode.flow[j]);
      }
      const Polynomial fi_dot = mode.flow[i].lie_derivative(mode.flow);
      if (!fi_dot.is_zero()) r += di * fi_dot;
    }
    r *= 0.5 * h * h;
    csp.couple(tb);
    csp.couple(r);
    tb_all.push_back(std::move(tb));
    r_all.push_back(std::move(r));
  }

  for (std::size_t q = 0; q < system_.modes().size(); ++q) {
    const auto& mode = system_.modes()[q];
    const std::string tag = "adv.m" + std::to_string(q);
    const PolyLin& tb = tb_all[q];
    const PolyLin& r = r_all[q];

    // (A) progress: on C_q x U, b_prev <= 0 => T b + gamma <= 0.
    {
      const PolyLin sa = prog.add_sos_poly(deg_sigma, 0, tag + ".sa");
      PolyLin expr = -tb - PolyLin(Polynomial::constant(nvars, gamma)) + sa * b_prev;
      subtract_multipliers(prog, expr, mode.domain, deg_sigma, tag + ".A.g", csp);
      subtract_multipliers(prog, expr, params, deg_sigma, tag + ".Au.g", csp);
      prog.add_sos_constraint(expr, tag + ".progress");
    }

    // (B) bounded step: on C_q x U, T b - gamma <= 0 => b_prev - eps <= 0,
    // certified with a constant multiplier lambda to keep the program affine
    // in b_next.
    {
      PolyLin expr = PolyLin(Polynomial::constant(nvars, eps) - b_prev) + lambda * tb -
                     PolyLin(Polynomial::constant(nvars, lambda * gamma));
      subtract_multipliers(prog, expr, mode.domain, deg_sigma, tag + ".B.g", csp);
      subtract_multipliers(prog, expr, params, deg_sigma, tag + ".Bu.g", csp);
      prog.add_sos_constraint(expr, tag + ".bounded");
    }

    // (C) curvature bound |R| <= kappa on {b_prev <= eps} ∩ C_q x U.
    for (int sign = -1; sign <= 1; sign += 2) {
      const std::string c = std::to_string(sign);
      const PolyLin sc = prog.add_sos_poly(deg_sigma, 0, tag + ".sc" + c);
      PolyLin expr = PolyLin(Polynomial::constant(nvars, kappa)) -
                     static_cast<double>(sign) * r -
                     sc * (Polynomial::constant(nvars, eps) - b_prev);
      subtract_multipliers(prog, expr, mode.domain, deg_sigma, tag + ".C" + c + ".g", csp);
      subtract_multipliers(prog, expr, params, deg_sigma, tag + ".Cu" + c + ".g", csp);
      prog.add_sos_constraint(expr, tag + ".curvature" + c);
    }
  }

  // Tightness objective: maximize int_box b_next (shrinks the sublevel set
  // onto the forward image, see header).
  {
    std::vector<std::pair<double, double>> box = options_.integration_box;
    if (box.empty()) box = hybrid::estimate_state_box(system_);
    poly::LinExpr volume_proxy;
    for (const auto& [m, coeff] : b_next.terms()) {
      double moment = 1.0;
      for (std::size_t i = 0; i < nstates; ++i) {
        const auto [lo, hi] = box[i];
        const double p = static_cast<double>(m.exponent(i)) + 1.0;
        moment *= (std::pow(hi, p) - std::pow(lo, p)) / p;
      }
      volume_proxy += moment * coeff;
    }
    prog.maximize(volume_proxy);
  }

  // An infeasible attempt exports no blob; the previous one survives for the
  // next rung of the ladder. A stalled-but-valid iterate passes the audit
  // and yields a sound (merely less tight) step.
  const AuditedSolve solved = solve_and_audit(prog, config_, "advection step", result.solver,
                                              WarmChain::through(warm_cache_, config_));
  result.audit = solved.audit;
  if (!solved.ok()) {
    result.message = solved.message + " at eps=" + std::to_string(eps);
    return result;
  }
  result.next = solved.solved.value(b_next).pruned(1e-12);
  // Reject degenerate (near-flat) iterates: they arise when an escalated eps
  // makes condition (B) vacuous and describe "the whole space", which would
  // silently stall the advection loop.
  double max_shape_coeff = 0.0;
  double constant_coeff = 0.0;
  for (const auto& [m, c] : result.next.terms()) {
    if (m.is_constant()) {
      constant_coeff = std::fabs(c);
    } else {
      max_shape_coeff = std::max(max_shape_coeff, std::fabs(c));
    }
  }
  if (max_shape_coeff < 0.02 * std::max(constant_coeff, 1e-6)) {
    result.message = "advection step degenerated to a near-flat set at eps=" +
                     std::to_string(eps);
    return result;
  }
  result.success = true;
  return result;
}

}  // namespace soslock::core
