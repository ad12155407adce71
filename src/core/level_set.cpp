#include "core/level_set.hpp"

#include <algorithm>

#include "core/certifier_common.hpp"
#include "util/log.hpp"

namespace soslock::core {

using hybrid::SemialgebraicSet;
using poly::LinExpr;
using poly::Polynomial;
using poly::PolyLin;

bool AttractiveInvariant::contains(const linalg::Vector& x_full) const {
  for (std::size_t q = 0; q < certificates.size(); ++q) {
    if (certificates[q].eval(x_full) <= levels[q]) return true;
  }
  return false;
}

bool AttractiveInvariant::contains_consistent(const linalg::Vector& x_full) const {
  for (const Polynomial& v : certificates) {
    if (v.eval(x_full) <= consistent_level) return true;
  }
  return false;
}

LevelSetResult LevelSetMaximizer::maximize_one(const Polynomial& v,
                                               const SemialgebraicSet& domain,
                                               const sdp::WarmStart* warm,
                                               sdp::WarmStart* warm_out) const {
  LevelSetResult result;
  const std::size_t nvars = v.nvars();

  // Scale the variables to the domain box; the level value c is
  // coordinate-free.
  const BoxScaling scale(domain, nvars);
  const Polynomial v_scaled = scale(v);
  const SemialgebraicSet domain_scaled = scale(domain);

  sos::SosProgram prog(nvars);
  prog.set_sparsity(config_);

  const LinExpr c = prog.add_scalar("c");
  prog.add_linear_ge(c, "c >= 0");
  prog.add_linear_ge(LinExpr(options_.level_cap) - c, "c cap");

  // Multiplier bases restricted to the csp clique of V's variables: the
  // level program never touches the parameters, so their monomials are dead
  // weight in every dense multiplier (a provably lossless restriction).
  poly::MultiplierSparsity csp = sos::multiplier_plan(nvars, config_);
  csp.couple(v_scaled);

  for (std::size_t k = 0; k < domain_scaled.constraints().size(); ++k) {
    const Polynomial& g = domain_scaled.constraints()[k];
    const PolyLin sigma = prog.add_sos_poly(csp.multiplier_basis(g, options_.multiplier_degree),
                                            "lvl.sigma" + std::to_string(k));
    // V - c + sigma * g ∈ Σ  (Lemma 1 with unit multiplier on V - c).
    PolyLin expr = PolyLin(v_scaled);
    expr += sigma * g;
    // Subtract the scalar c as the coefficient of the constant monomial.
    PolyLin c_term(nvars);
    c_term.add_term(poly::Monomial(nvars), c);
    expr -= c_term;
    prog.add_sos_constraint(expr, "lvl.g" + std::to_string(k));
  }

  prog.maximize(c);
  // A stalled iterate still certifies a (possibly smaller) level.
  const AuditedSolve solved =
      solve_and_audit(prog, config_, "level", result.solver, {warm, warm_out});
  if (!solved.ok()) {
    result.message = solved.message;
    return result;
  }
  result.success = true;
  result.levels = {solved.solved.value(c)};
  result.consistent_level = result.levels.front();
  return result;
}

LevelSetResult LevelSetMaximizer::maximize(const hybrid::HybridSystem& system,
                                           const std::vector<Polynomial>& certificates) const {
  LevelSetResult result;
  const std::size_t num_modes = system.modes().size();
  result.message =
      num_modes == 0 ? "system has no modes" : certificate_count_error(system, certificates);
  if (!result.message.empty()) return result;

  // The per-mode maximisations are independent SDPs on the per-mode
  // schedule: their programs are structurally identical (same domain shape,
  // same multiplier degrees), so mode 0's iterate is a close starting point
  // for the rest.
  std::vector<LevelSetResult> per_mode(num_modes);
  const std::size_t failed = run_per_mode(
      num_modes, config_,
      [&](std::size_t q, const sdp::SolverConfig& config, WarmChain warm) {
        per_mode[q] = LevelSetMaximizer(options_, config)
                          .maximize_one(certificates[q], system.modes()[q].domain, warm.in,
                                        warm.out);
        return per_mode[q].success;
      });

  for (std::size_t q = 0; q < num_modes; ++q) result.solver.merge(per_mode[q].solver);
  if (failed < num_modes) {
    result.message = "mode " + std::to_string(failed) + ": " + per_mode[failed].message;
    return result;
  }
  result.success = true;
  result.levels.reserve(num_modes);
  for (std::size_t q = 0; q < num_modes; ++q) {
    result.levels.push_back(per_mode[q].levels.front());
    util::log_info("level set: mode ", q, " c_max = ", per_mode[q].levels.front());
  }
  result.consistent_level =
      *std::min_element(result.levels.begin(), result.levels.end());
  return result;
}

}  // namespace soslock::core
