#include "core/escape.hpp"

#include "core/lyapunov.hpp"
#include "poly/sparsity.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace soslock::core {

using hybrid::SemialgebraicSet;
using poly::LinExpr;
using poly::Monomial;
using poly::Polynomial;
using poly::PolyLin;

namespace {

/// Build and solve one escape program: E over `modes` (shared E when several
/// modes are passed), each restricted to its own semialgebraic set. `warm`
/// optionally replays a structurally identical previous iterate (the
/// per-mode programs share one shape, so mode 0 seeds the rest);
/// `warm_out` receives this solve's exported blob.
EscapeResult solve_escape(const hybrid::HybridSystem& system,
                          const std::vector<std::size_t>& modes,
                          const std::vector<SemialgebraicSet>& sets,
                          const EscapeOptions& options,
                          const sdp::SolverConfig& config,
                          const sdp::WarmStart* warm = nullptr,
                          sdp::WarmStart* warm_out = nullptr) {
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
    for (std::size_t k = 0; k < sets[idx].constraints().size(); ++k) {
      const PolyLin s = prog.add_sos_poly(
          csp.multiplier_basis(sets[idx].constraints()[k], options.multiplier_degree),
          tag + ".g" + std::to_string(k));
      expr -= s * sets[idx].constraints()[k];
    }
    for (std::size_t k = 0; k < system.parameter_set().constraints().size(); ++k) {
      const PolyLin s = prog.add_sos_poly(
          csp.multiplier_basis(system.parameter_set().constraints()[k],
                               options.multiplier_degree),
          tag + ".u" + std::to_string(k));
      expr -= s * system.parameter_set().constraints()[k];
    }
    prog.add_sos_constraint(expr, tag + ".escape");
  }

  prog.maximize(rho);
  const sos::SolveResult solved = prog.solve(config, warm);
  if (warm_out != nullptr && !solved.warm.empty()) *warm_out = solved.warm;
  result.solver.absorb(solved);
  if (sos::solve_hard_failed(solved)) {
    result.message = "escape SOS infeasible (" + sdp::to_string(solved.status) + ")";
    return result;
  }
  result.audit = sos::audit(prog, solved);
  if (!result.audit.ok) {
    result.message = "escape certificate failed audit";
    return result;
  }
  const double rate = solved.value(rho);
  if (!(rate >= options.rho_min)) {
    result.message = "escape rate below rho_min";
    return result;
  }
  result.success = true;
  const Polynomial e_num = solved.value(e_poly).pruned(1e-12);
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

  // Independent certificate per mode (mirrors the paper's "2 certificates");
  // the per-mode programs are independent SDPs, solved on the thread pool
  // (modes after the first failure are skipped). With warm starts on, mode 0
  // solves first and its iterate seeds the remaining modes — the per-mode
  // programs are structurally identical whenever the mode sets have the same
  // shape (a mismatch is rejected by the blob's fingerprint and solves cold).
  std::vector<EscapeResult> per_mode(modes.size());
  const util::ThreadPool pool(config_.threads);
  const bool reuse = config_.warm_start && modes.size() > 1;
  // Concurrent per-mode solves share the backend thread budget.
  const sdp::SolverConfig batched =
      sdp::share_threads(config_, reuse ? modes.size() - 1 : modes.size());
  std::size_t failed = modes.size();
  if (reuse) {
    sdp::WarmStart seed;
    per_mode[0] =
        solve_escape(system, {modes[0]}, {sets[0]}, options_, config_, nullptr, &seed);
    if (!per_mode[0].success) {
      failed = 0;
    } else {
      const std::size_t rest =
          pool.run_all_until_failure(modes.size() - 1, [&](std::size_t i) {
            const std::size_t idx = i + 1;
            per_mode[idx] = solve_escape(system, {modes[idx]}, {sets[idx]}, options_,
                                         batched, seed.empty() ? nullptr : &seed);
            return per_mode[idx].success;
          });
      if (rest < modes.size() - 1) failed = rest + 1;
    }
  } else {
    failed = pool.run_all_until_failure(modes.size(), [&](std::size_t idx) {
      per_mode[idx] = solve_escape(system, {modes[idx]}, {sets[idx]}, options_, batched);
      return per_mode[idx].success;
    });
  }

  EscapeResult combined;
  for (const EscapeResult& one : per_mode) {
    combined.audit.checked += one.audit.checked;
    combined.audit.failed += one.audit.failed;
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
  combined.audit.ok = combined.audit.failed == 0;
  return combined;
}

EscapeResult EscapeCertifier::certify_set(const hybrid::HybridSystem& system, std::size_t mode,
                                          const SemialgebraicSet& set) const {
  return solve_escape(system, {mode}, {set}, options_, config_);
}

}  // namespace soslock::core
