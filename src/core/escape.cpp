#include "core/escape.hpp"

#include "core/certifier_common.hpp"
#include "core/lyapunov.hpp"

namespace soslock::core {

using hybrid::SemialgebraicSet;
using poly::LinExpr;
using poly::Monomial;
using poly::Polynomial;
using poly::PolyLin;

namespace {

/// Build and solve one escape program: E over `modes` (shared E when several
/// modes are passed), each restricted to its own semialgebraic set.
EscapeResult solve_escape(const hybrid::HybridSystem& system,
                          const std::vector<std::size_t>& modes,
                          const std::vector<SemialgebraicSet>& sets,
                          const EscapeOptions& options,
                          const sdp::SolverConfig& config,
                          WarmChain warm = {}) {
  EscapeResult result;
  const std::size_t nstates = system.nstates();
  const std::size_t nvars = system.nvars();

  sos::SosProgram prog(nvars);
  prog.set_trace_regularization(options.trace_regularization);
  prog.set_sparsity(config);

  // E: states only, degrees 1..d (the constant shifts nothing).
  const PolyLin e_poly =
      prog.add_poly(state_monomials(nvars, nstates, options.certificate_degree, 1), "E");
  const LinExpr rho = prog.add_scalar("rho");
  prog.add_linear_ge(rho - LinExpr(options.rho_min), "rho_min");
  prog.add_linear_ge(LinExpr(options.rho_cap) - rho, "rho_cap");
  for (const auto& [m, coeff] : e_poly.terms()) {
    prog.add_linear_ge(LinExpr(options.coeff_cap) - coeff, "E cap+");
    prog.add_linear_ge(coeff + LinExpr(options.coeff_cap), "E cap-");
  }

  // Two-phase: couple every mode's target before the first multiplier is
  // created, so the clique bases come from the full csp graph regardless of
  // mode order.
  poly::MultiplierSparsity csp = sos::multiplier_plan(nvars, config);
  std::vector<PolyLin> exprs;
  exprs.reserve(modes.size());
  for (const std::size_t q : modes) {
    // -dE/dx·f_q - rho - sum sigma*g ∈ Σ on the set.
    PolyLin expr = -e_poly.lie_derivative(system.modes()[q].flow);
    PolyLin rho_term(nvars);
    rho_term.add_term(Monomial(nvars), rho);
    expr -= rho_term;
    csp.couple(expr);
    exprs.push_back(std::move(expr));
  }
  for (std::size_t idx = 0; idx < modes.size(); ++idx) {
    const std::size_t q = modes[idx];
    const std::string tag = "esc.m" + std::to_string(q);
    PolyLin expr = std::move(exprs[idx]);
    subtract_multipliers(prog, expr, sets[idx], options.multiplier_degree, tag + ".g", csp);
    subtract_multipliers(prog, expr, system.parameter_set(), options.multiplier_degree,
                         tag + ".u", csp);
    prog.add_sos_constraint(expr, tag + ".escape");
  }

  prog.maximize(rho);
  const AuditedSolve solved = solve_and_audit(prog, config, "escape", result.solver, warm);
  result.audit = solved.audit;
  if (!solved.ok()) {
    result.message = solved.message;
    return result;
  }
  const double rate = solved.solved.value(rho);
  if (!(rate >= options.rho_min)) {
    result.message = "escape rate below rho_min";
    return result;
  }
  result.success = true;
  const Polynomial e_num = solved.solved.value(e_poly).pruned(1e-12);
  for (std::size_t idx = 0; idx < modes.size(); ++idx) {
    result.certificates.push_back(e_num);
    result.rates.push_back(rate);
  }
  result.num_certificates = 1;
  return result;
}

}  // namespace

EscapeResult EscapeCertifier::certify(const hybrid::HybridSystem& system,
                                      const std::vector<std::size_t>& modes,
                                      const Polynomial& region,
                                      const std::vector<Polynomial>& certificates,
                                      double level) const {
  EscapeResult combined;
  combined.message = certificate_count_error(system, certificates);
  for (const std::size_t q : modes) {
    if (q >= system.modes().size()) combined.message = "mode index out of range";
  }
  if (!combined.message.empty()) return combined;
  // Region per mode: S(region) ∩ {V_q >= level} ∩ C_q.
  std::vector<SemialgebraicSet> sets;
  sets.reserve(modes.size());
  for (std::size_t q : modes) {
    SemialgebraicSet s = system.modes()[q].domain;
    s.add_constraint(-1.0 * region);                      // region <= 0
    s.add_constraint(certificates[q] - level);            // outside the level set
    sets.push_back(std::move(s));
  }

  if (!options_.per_mode) {
    return solve_escape(system, modes, sets, options_, config_);
  }

  // Independent certificate per mode (mirrors the paper's "2 certificates")
  // on the per-mode schedule. The per-mode programs are structurally
  // identical whenever the mode sets have the same shape, so mode 0's
  // iterate seeds the rest.
  std::vector<EscapeResult> per_mode(modes.size());
  const std::size_t failed = run_per_mode(
      modes.size(), config_,
      [&](std::size_t idx, const sdp::SolverConfig& config, WarmChain warm) {
        per_mode[idx] =
            solve_escape(system, {modes[idx]}, {sets[idx]}, options_, config, warm);
        return per_mode[idx].success;
      });

  for (const EscapeResult& one : per_mode) {
    combined.audit.merge(one.audit);
    combined.solver.merge(one.solver);
  }
  if (failed < modes.size()) {
    combined.message =
        "mode " + std::to_string(modes[failed]) + ": " + per_mode[failed].message;
    return combined;
  }
  combined.success = true;
  for (const EscapeResult& one : per_mode) {
    combined.certificates.push_back(one.certificates.front());
    combined.rates.push_back(one.rates.front());
    ++combined.num_certificates;
  }
  return combined;
}

EscapeResult EscapeCertifier::certify_set(const hybrid::HybridSystem& system, std::size_t mode,
                                          const SemialgebraicSet& set) const {
  return solve_escape(system, {mode}, {set}, options_, config_);
}

}  // namespace soslock::core
