#include "core/inclusion.hpp"

#include <algorithm>
#include <cmath>

#include "poly/sparsity.hpp"
#include "util/log.hpp"

namespace soslock::core {

using hybrid::SemialgebraicSet;
using poly::Polynomial;
using poly::PolyLin;

InclusionResult InclusionChecker::subset(const Polynomial& b1, const Polynomial& b2) const {
  return subset_on(b1, b2, SemialgebraicSet(b1.nvars()));
}

InclusionResult InclusionChecker::subset_on(const Polynomial& b1, const Polynomial& b2,
                                            const SemialgebraicSet& domain,
                                            const sdp::WarmStart* warm,
                                            sdp::WarmStart* warm_out) const {
  InclusionResult result;
  const std::size_t nvars = b1.nvars();

  // Variable scaling to the domain box (conditioning; inclusion between the
  // sets is invariant under the change of coordinates).
  const auto box = hybrid::estimate_box(domain, nvars);
  std::vector<Polynomial> scale_map;
  scale_map.reserve(nvars);
  for (std::size_t i = 0; i < nvars; ++i) {
    const double s = std::max({std::fabs(box[i].first), std::fabs(box[i].second), 1e-9});
    scale_map.push_back(s * Polynomial::variable(nvars, i));
  }
  const Polynomial b1s = b1.substitute(scale_map);
  const Polynomial b2s = b2.substitute(scale_map);

  sos::SosProgram prog(nvars);
  prog.set_trace_regularization(options_.trace_regularization);
  prog.set_sparsity(config_);

  // sigma * b1 - b2 - sum sigma_k g_k ∈ Σ on the domain. The multiplier
  // bases are restricted to the csp cliques of the (scaled) set data; the
  // inclusion sets live on the states, so parameter monomials drop out of
  // every multiplier (lossless — the data never couples them).
  poly::MultiplierSparsity csp = sos::multiplier_plan(nvars, config_);
  csp.couple(b1s);
  csp.couple(b2s);
  const PolyLin sigma = prog.add_sos_poly(
      csp.multiplier_basis(b1s, options_.multiplier_degree), "incl.sigma");
  PolyLin expr = sigma * b1s - PolyLin(b2s);
  for (std::size_t k = 0; k < domain.constraints().size(); ++k) {
    const Polynomial gk = domain.constraints()[k].substitute(scale_map);
    const PolyLin sg = prog.add_sos_poly(
        csp.multiplier_basis(gk, options_.multiplier_degree),
        "incl.dom" + std::to_string(k));
    expr -= sg * gk;
  }
  prog.add_sos_constraint(expr, "incl");

  const sos::SolveResult solved = prog.solve(config_, warm);
  // Infeasible outcomes (a not-yet-immersed iterate) export no blob; keep
  // the caller's previous one rather than clearing its cache.
  if (warm_out != nullptr && !solved.warm.empty()) *warm_out = solved.warm;
  result.solver.absorb(solved);
  if (sos::solve_hard_failed(solved)) {
    result.message = "inclusion SOS infeasible (" + sdp::to_string(solved.status) + ")";
    return result;
  }
  result.audit = sos::audit(prog, solved);
  result.included = result.audit.ok;
  if (!result.audit.ok) result.message = "inclusion certificate failed audit";
  return result;
}

InclusionResult InclusionChecker::subset_of_invariant(
    const Polynomial& b, const hybrid::HybridSystem& system,
    const std::vector<Polynomial>& certificates, double level) const {
  InclusionResult result;
  result.included = true;
  const bool reuse = config_.warm_start;
  for (std::size_t q = 0; q < system.modes().size(); ++q) {
    // S(b) ∩ C_q ⊆ {V_q <= level}: treat V_q - level as the outer set.
    const Polynomial outer = certificates[q] - level;
    sdp::WarmStart& cache = mode_warm_cache_[q];
    const InclusionResult one =
        subset_on(b, outer, system.modes()[q].domain,
                  reuse && !cache.empty() ? &cache : nullptr, reuse ? &cache : nullptr);
    result.audit.checked += one.audit.checked;
    result.audit.failed += one.audit.failed;
    result.solver.merge(one.solver);
    if (!one.included) {
      result.included = false;
      result.failed_modes.push_back(q);
      result.message = "not immersed in mode " + std::to_string(q) + " level set";
    }
  }
  result.audit.ok = result.audit.failed == 0;
  return result;
}

}  // namespace soslock::core
