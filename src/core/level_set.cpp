#include "core/level_set.hpp"

#include "poly/sparsity.hpp"
#include "sos/checker.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"
#include "util/thread_pool.hpp"

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

  // Scale the variables to the domain box: high-degree monomials over wide
  // voltage boxes otherwise span many orders of magnitude and wreck the SDP
  // conditioning. The level value c is coordinate-free.
  const auto box = hybrid::estimate_box(domain, nvars);
  std::vector<Polynomial> scale_map;
  scale_map.reserve(nvars);
  for (std::size_t i = 0; i < nvars; ++i) {
    const double s = std::max({std::fabs(box[i].first), std::fabs(box[i].second), 1e-9});
    scale_map.push_back(s * Polynomial::variable(nvars, i));
  }
  const Polynomial v_scaled = v.substitute(scale_map);
  SemialgebraicSet domain_scaled(nvars);
  for (const Polynomial& g : domain.constraints())
    domain_scaled.add_constraint(g.substitute(scale_map));

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
  const sos::SolveResult solved = prog.solve(config_, warm);
  if (warm_out != nullptr && !solved.warm.empty()) *warm_out = solved.warm;
  result.solver.absorb(solved);
  // Audit-based acceptance: a stalled iterate still certifies a (possibly
  // smaller) level; only certified infeasibility or residual blowup fails.
  if (sos::solve_hard_failed(solved)) {
    result.message = "level maximisation failed (" + sdp::to_string(solved.status) + ")";
    return result;
  }
  const sos::AuditReport audit_report = sos::audit(prog, solved);
  if (!audit_report.ok) {
    result.message = "level certificate failed audit";
    return result;
  }
  result.success = true;
  result.levels = {solved.value(c)};
  result.consistent_level = result.levels.front();
  return result;
}

LevelSetResult LevelSetMaximizer::maximize(const hybrid::HybridSystem& system,
                                           const std::vector<Polynomial>& certificates) const {
  LevelSetResult result;
  const std::size_t num_modes = system.modes().size();

  // The per-mode maximisations are independent SDPs: dispatch them onto the
  // thread pool (modes after the first failure are skipped, keeping the
  // failure path as cheap as the old sequential early exit). With warm
  // starts on, mode 0 solves first and seeds the remaining modes — their
  // programs are structurally identical (same domain shape, same multiplier
  // degrees), so the previous iterate is a close starting point.
  std::vector<LevelSetResult> per_mode(num_modes);
  const util::ThreadPool pool(config_.threads);
  const bool reuse = config_.warm_start && num_modes > 1;
  // Concurrent per-mode solves share the backend thread budget.
  const LevelSetMaximizer batched(
      options_, sdp::share_threads(config_, reuse ? num_modes - 1 : num_modes));
  sdp::WarmStart seed;
  std::size_t failed = num_modes;
  if (reuse) {
    per_mode[0] = maximize_one(certificates[0], system.modes()[0].domain, nullptr, &seed);
    if (!per_mode[0].success) {
      failed = 0;
    } else {
      const std::size_t rest =
          pool.run_all_until_failure(num_modes - 1, [&](std::size_t i) {
            const std::size_t q = i + 1;
            per_mode[q] = batched.maximize_one(certificates[q], system.modes()[q].domain,
                                               seed.empty() ? nullptr : &seed);
            return per_mode[q].success;
          });
      if (rest < num_modes - 1) failed = rest + 1;
    }
  } else {
    failed = pool.run_all_until_failure(num_modes, [&](std::size_t q) {
      per_mode[q] = batched.maximize_one(certificates[q], system.modes()[q].domain);
      return per_mode[q].success;
    });
  }

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
