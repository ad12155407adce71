#include "core/barrier.hpp"

#include "core/certifier_common.hpp"
#include "core/lyapunov.hpp"
#include "util/log.hpp"

namespace soslock::core {

using hybrid::SemialgebraicSet;
using poly::Monomial;
using poly::Polynomial;
using poly::PolyLin;

BarrierResult BarrierCertifier::certify(const hybrid::HybridSystem& system,
                                        const SemialgebraicSet& initial,
                                        const SemialgebraicSet& unsafe) const {
  BarrierResult result;
  const std::size_t nvars = system.nvars();
  const std::size_t nstates = system.nstates();
  const std::size_t num_modes = system.modes().size();

  sos::SosProgram prog(nvars);
  prog.set_trace_regularization(options_.trace_regularization);
  prog.set_sparsity(config_);

  // Barrier polynomials over the states (constant term included: the zero
  // level surface separates X0 from Xu).
  const std::vector<Monomial> support =
      state_monomials(nvars, nstates, options_.certificate_degree, 0);
  std::vector<PolyLin> b;
  if (options_.common_certificate) {
    b.assign(num_modes, prog.add_poly(support, "B"));
  } else {
    for (std::size_t q = 0; q < num_modes; ++q)
      b.push_back(prog.add_poly(support, "B" + std::to_string(q)));
  }

  // Pre-couple every mode's (and jump's) data before the first multiplier
  // is created: clique bases must come from the full csp graph, not an
  // order-dependent prefix of it.
  poly::MultiplierSparsity csp = sos::multiplier_plan(nvars, config_);
  for (std::size_t q = 0; q < num_modes; ++q) {
    csp.couple(b[q]);
    csp.couple(-b[q].lie_derivative(system.modes()[q].flow));
  }
  if (!options_.common_certificate) {
    for (const auto& jump : system.jumps()) couple_jump_reset(csp, jump, nvars, nstates);
  }
  for (std::size_t q = 0; q < num_modes; ++q) {
    const std::string tag = "barrier.m" + std::to_string(q);
    // (i) B <= 0 on X0: -B - sigmas*g ∈ Σ.
    {
      PolyLin expr = -b[q];
      subtract_multipliers(prog, expr, initial, options_.multiplier_degree, tag + ".x0.", csp);
      prog.add_sos_constraint(expr, tag + ".initial");
    }
    // (ii) B >= margin on Xu: B - margin - sigmas*g ∈ Σ.
    {
      PolyLin expr = b[q] - PolyLin(Polynomial::constant(nvars, options_.unsafe_margin));
      subtract_multipliers(prog, expr, unsafe, options_.multiplier_degree, tag + ".xu.", csp);
      prog.add_sos_constraint(expr, tag + ".unsafe");
    }
    // (iii) dB/dx·f_q <= 0 on C_q x U: -LieB - sigmas*g ∈ Σ.
    {
      PolyLin expr = -b[q].lie_derivative(system.modes()[q].flow);
      subtract_multipliers(prog, expr, system.modes()[q].domain, options_.multiplier_degree,
                           tag + ".flow.", csp);
      subtract_multipliers(prog, expr, system.parameter_set(), options_.multiplier_degree,
                           tag + ".u.", csp);
      prog.add_sos_constraint(expr, tag + ".decrease");
    }
  }

  // (iv) jumps: B_to(R(x)) - B_from(x) <= 0 on guards.
  if (!options_.common_certificate) {
    for (std::size_t l = 0; l < system.jumps().size(); ++l) {
      const auto& jump = system.jumps()[l];
      if (jump.from == jump.to) continue;
      PolyLin expr = b[jump.from] - compose_with_reset(b[jump.to], jump);
      subtract_multipliers(prog, expr, jump.guard, options_.multiplier_degree,
                           "barrier.j" + std::to_string(l) + ".", csp);
      prog.add_sos_constraint(expr, "barrier.jump" + std::to_string(l));
    }
  }

  // Repeated-structure warm start: successive certify() calls (margin or
  // degree sweeps, per-scenario safety checks) share one compiled shape.
  const AuditedSolve solved = solve_and_audit(prog, config_, "barrier", result.solver,
                                              WarmChain::through(warm_cache_, config_));
  result.audit = solved.audit;
  if (!solved.ok()) {
    result.message = solved.message;
    return result;
  }
  for (std::size_t q = 0; q < num_modes; ++q)
    result.certificates.push_back(solved.solved.value(b[q]).pruned(1e-12));
  result.success = true;
  util::log_info("barrier: synthesized (", result.audit.checked, " identities audited)");
  return result;
}

}  // namespace soslock::core
