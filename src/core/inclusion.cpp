#include "core/inclusion.hpp"

#include "core/certifier_common.hpp"

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
  const BoxScaling scale(domain, nvars);
  const Polynomial b1s = scale(b1);
  const Polynomial b2s = scale(b2);

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
  subtract_multipliers(prog, expr, scale(domain), options_.multiplier_degree, "incl.dom", csp);
  prog.add_sos_constraint(expr, "incl");

  // A not-yet-immersed iterate is infeasible and exports no blob, so the
  // caller's previous one survives.
  const AuditedSolve solved =
      solve_and_audit(prog, config_, "inclusion", result.solver, {warm, warm_out});
  result.audit = solved.audit;
  result.included = solved.ok();
  result.message = solved.message;
  return result;
}

InclusionResult InclusionChecker::subset_of_invariant(
    const Polynomial& b, const hybrid::HybridSystem& system,
    const std::vector<Polynomial>& certificates, double level) const {
  InclusionResult result;
  result.message = certificate_count_error(system, certificates);
  if (!result.message.empty()) return result;
  result.included = true;
  for (std::size_t q = 0; q < system.modes().size(); ++q) {
    // S(b) ∩ C_q ⊆ {V_q <= level}: treat V_q - level as the outer set.
    const Polynomial outer = certificates[q] - level;
    const WarmChain warm = WarmChain::through(mode_warm_cache_[q], config_);
    const InclusionResult one =
        subset_on(b, outer, system.modes()[q].domain, warm.in, warm.out);
    result.audit.merge(one.audit);
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
