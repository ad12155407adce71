#include "core/lyapunov.hpp"

#include <algorithm>
#include <cmath>

#include "core/certifier_common.hpp"
#include "poly/basis.hpp"
#include "poly/sparsity.hpp"
#include "util/log.hpp"

namespace soslock::core {

using hybrid::HybridSystem;
using hybrid::Jump;
using hybrid::Mode;
using poly::Monomial;
using poly::Polynomial;
using poly::PolyLin;

std::vector<Monomial> state_monomials(std::size_t nvars, std::size_t nstates, unsigned max_deg,
                                      unsigned min_deg) {
  const std::vector<Monomial> base = poly::monomials_up_to(nstates, max_deg, min_deg);
  std::vector<Monomial> out;
  out.reserve(base.size());
  for (const Monomial& m : base) {
    Monomial big(nvars);
    for (std::size_t i = 0; i < nstates; ++i) big.set_exponent(i, m.exponent(i));
    out.push_back(big);
  }
  return out;
}

std::vector<Monomial> sparse_state_monomials(const HybridSystem& system, unsigned max_deg,
                                             unsigned min_deg) {
  const std::size_t nstates = system.nstates();
  const std::size_t nvars = system.nvars();
  // Flow-coupling graph over the states: x_i ~ x_j iff x_j appears in some
  // mode's f_i (symmetrized). Parameters never enter the certificate.
  util::Adjacency adj(nstates, std::vector<bool>(nstates, false));
  for (const Mode& mode : system.modes()) {
    for (std::size_t i = 0; i < nstates && i < mode.flow.size(); ++i) {
      for (const auto& [m, c] : mode.flow[i].terms()) {
        for (std::size_t j = 0; j < nstates; ++j) {
          if (j != i && m.exponent(j) > 0) {
            adj[i][j] = true;
            adj[j][i] = true;
          }
        }
      }
    }
  }
  const util::CliqueForest forest = util::chordal_cliques(nstates, adj);
  // One monomial survives iff its variables fit inside some clique; a
  // single scan of the dense template against all cliques keeps the cost at
  // one enumeration regardless of how many cliques the tree splits into.
  std::vector<std::vector<bool>> in_clique(forest.cliques.size(),
                                           std::vector<bool>(nstates, false));
  for (std::size_t k = 0; k < forest.cliques.size(); ++k)
    for (const std::size_t v : forest.cliques[k]) in_clique[k][v] = true;
  std::vector<Monomial> out;
  for (const Monomial& m : state_monomials(nvars, nstates, max_deg, min_deg)) {
    for (const auto& mask : in_clique) {
      bool covered = true;
      for (std::size_t i = 0; i < nstates && covered; ++i)
        if (m.exponent(i) > 0 && !mask[i]) covered = false;
      if (covered) {
        out.push_back(m);
        break;
      }
    }
  }
  return out;
}

void couple_jump_reset(poly::MultiplierSparsity& csp, const Jump& jump,
                       std::size_t nvars, std::size_t nstates) {
  if (jump.from == jump.to || jump.is_identity_reset()) return;
  Monomial coupled(nvars);
  for (std::size_t i = 0; i < nstates; ++i) coupled.set_exponent(i, 1);
  for (std::size_t i = 0; i < nstates; ++i) {
    for (const auto& [m, c] : jump.reset[i].terms()) {
      for (std::size_t var = 0; var < nvars; ++var) {
        if (m.exponent(var) > 0) coupled.set_exponent(var, 1);
      }
    }
  }
  csp.couple(std::vector<Monomial>{coupled});
}

namespace {

/// Conditions (a) positivity and (b) flow decrease for one mode; shared by
/// the joint and the decoupled (mode-parallel) synthesis paths.
void add_mode_conditions(sos::SosProgram& prog, const PolyLin& v_q, const HybridSystem& system,
                         std::size_t q, const LyapunovOptions& options,
                         const Polynomial& x_norm2, poly::MultiplierSparsity& csp) {
  const Mode& mode = system.modes()[q];
  const std::string tag = "mode" + std::to_string(q);
  const unsigned deg_sigma = options.multiplier_degree;

  // (a) positivity: V_q - eps*|x|^2 - sum sigma*g ∈ Σ on C_q.
  {
    PolyLin expr = v_q - PolyLin(options.positivity_margin * x_norm2);
    csp.couple(expr);
    subtract_multipliers(prog, expr, mode.domain, deg_sigma, tag + ".pos.sigma", csp);
    prog.add_sos_constraint(expr, tag + ".positivity");
  }

  // (b) flow decrease: -V̇_q - [margin*|x|^2] - sum sigma*g - sum sigma*gu ∈ Σ.
  {
    PolyLin expr = -v_q.lie_derivative(mode.flow);
    if (options.flow_decrease == FlowDecrease::Strict) {
      expr -= PolyLin(options.strict_margin * x_norm2);
    }
    csp.couple(expr);
    subtract_multipliers(prog, expr, mode.domain, deg_sigma, tag + ".flow.sigma", csp);
    subtract_multipliers(prog, expr, system.parameter_set(), deg_sigma, tag + ".flowu.sigma",
                         csp);
    if (options.exclude_ball_radius > 0.0) {
      // Decrease required only on {||x||^2 >= r^2}.
      const double r2 = options.exclude_ball_radius * options.exclude_ball_radius;
      hybrid::SemialgebraicSet outside(prog.nvars());
      outside.add_constraint(x_norm2 - r2);
      subtract_multipliers(prog, expr, outside, deg_sigma, tag + ".ball.sigma", csp);
    }
    prog.add_sos_constraint(expr, tag + ".decrease");
  }
}

/// Normalized box-average objective for one mode's certificate (the
/// maximize_region volume proxy; see the joint path for the rationale).
poly::LinExpr mode_moment_objective(const PolyLin& v_q,
                                    const std::vector<std::pair<double, double>>& box,
                                    std::size_t nstates) {
  poly::LinExpr objective;
  for (const auto& [m, coeff] : v_q.terms()) {
    double moment = 1.0;
    for (std::size_t i = 0; i < nstates; ++i) {
      const auto [lo, hi] = box[i];
      const double p = static_cast<double>(m.exponent(i)) + 1.0;
      moment *= (std::pow(hi, p) - std::pow(lo, p)) / (p * std::max(hi - lo, 1e-12));
    }
    objective += moment * coeff;
  }
  return objective;
}

}  // namespace

LyapunovResult LyapunovSynthesizer::synthesize(const HybridSystem& system) const {
  LyapunovResult result;
  const std::string invalid = system.validate();
  if (!invalid.empty()) {
    result.message = "invalid hybrid system: " + invalid;
    return result;
  }
  if (options_.certificate_degree < 2 || options_.certificate_degree % 2 != 0) {
    result.message = "certificate degree must be even and >= 2";
    return result;
  }

  if (options_.mode_parallel && !options_.common_certificate && system.modes().size() > 1) {
    LyapunovResult decoupled = synthesize_decoupled(system);
    if (decoupled.success) return decoupled;
    util::log_info("lyapunov: decoupled synthesis not accepted (", decoupled.message,
                   "); falling back to the joint coupled program");
    LyapunovResult joint = synthesize_joint(system);
    joint.solver.merge(decoupled.solver);  // account for the attempted solves
    return joint;
  }
  return synthesize_joint(system);
}

LyapunovProgram build_lyapunov_program(const HybridSystem& system,
                                       const LyapunovOptions& options,
                                       const sdp::SolverConfig& config) {
  LyapunovProgram lp{sos::SosProgram(system.nvars()), {}};
  const std::size_t nstates = system.nstates();
  const std::size_t nvars = system.nvars();
  const unsigned deg_v = options.certificate_degree;
  const unsigned deg_sigma = options.multiplier_degree;

  sos::SosProgram& prog = lp.program;
  prog.set_trace_regularization(options.trace_regularization);
  prog.set_sparsity(config);

  // Unknown certificates: monomials of degree 2..deg_v in the states only
  // (V(0) = 0 by construction; no linear terms so the origin can be a local
  // minimum); clique-structured under sparse_template.
  const std::vector<Monomial> v_support =
      options.sparse_template ? sparse_state_monomials(system, deg_v, 2)
                              : state_monomials(nvars, nstates, deg_v, 2);
  std::vector<PolyLin>& v = lp.v;
  const std::size_t num_modes = system.modes().size();
  if (options.common_certificate) {
    const PolyLin shared = prog.add_poly(v_support, "V");
    v.assign(num_modes, shared);
  } else {
    for (std::size_t q = 0; q < num_modes; ++q)
      v.push_back(prog.add_poly(v_support, "V" + std::to_string(q)));
  }

  const Polynomial x_norm2 = poly::squared_norm(nvars, nstates);

  // Pre-couple the data of *every* mode and jump before the first
  // multiplier is created: clique bases must come from the full csp graph,
  // not the prefix built so far (an order-dependent under-coupled basis
  // would be a stricter restriction than the Waki relaxation intends).
  poly::MultiplierSparsity csp = sos::multiplier_plan(nvars, config);
  for (std::size_t q = 0; q < num_modes; ++q) {
    csp.couple(v[q] - PolyLin(options.positivity_margin * x_norm2));
    csp.couple(-v[q].lie_derivative(system.modes()[q].flow));
  }
  if (!options.common_certificate) {
    for (const Jump& jump : system.jumps()) couple_jump_reset(csp, jump, nvars, nstates);
  }
  for (std::size_t q = 0; q < num_modes; ++q)
    add_mode_conditions(prog, v[q], system, q, options, x_norm2, csp);

  // (c) jumps: V_to(R(x)) - V_from(x) <= -jump_margin on each guard.
  if (!options.common_certificate) {
    for (std::size_t l = 0; l < system.jumps().size(); ++l) {
      const Jump& jump = system.jumps()[l];
      if (jump.from == jump.to) continue;
      PolyLin expr = v[jump.from] - compose_with_reset(v[jump.to], jump);
      if (options.jump_margin > 0.0) {
        expr -= PolyLin(options.jump_margin * x_norm2);
      }
      const std::string tag = "jump" + std::to_string(l);
      csp.couple(expr);
      subtract_multipliers(prog, expr, jump.guard, deg_sigma, tag + ".sigma", csp);
      prog.add_sos_constraint(expr, tag + ".nonincrease");
    }
  }

  if (options.maximize_region) {
    // Fatten the eventual level sets: minimize sum_q int_box V_q. Normalized
    // moments (box averages) keep the objective O(1) per coefficient — raw
    // moments over wide voltage boxes reach 1e5 and wreck the conditioning.
    const auto box = hybrid::estimate_state_box(system);
    poly::LinExpr objective;
    for (std::size_t q = 0; q < num_modes; ++q) {
      objective += mode_moment_objective(v[q], box, nstates);
      if (options.common_certificate) break;
    }
    prog.minimize(objective);
  }
  return lp;
}

LyapunovResult LyapunovSynthesizer::synthesize_joint(const HybridSystem& system) const {
  LyapunovResult result;
  const std::size_t num_modes = system.modes().size();
  const LyapunovProgram lp = build_lyapunov_program(system, options_, config_);
  const AuditedSolve solved = solve_and_audit(lp.program, config_, "Lyapunov", result.solver);
  result.status = solved.solved.status;
  result.audit = solved.audit;
  result.message = solved.message;
  util::log_info("lyapunov: status=", sdp::to_string(result.status),
                 " audit_ok=", result.audit.ok, " worst_residual=", result.audit.worst_residual,
                 " ", result.solver.str());
  if (!solved.ok()) return result;
  result.success = true;
  result.certificates.reserve(num_modes);
  for (std::size_t q = 0; q < num_modes; ++q)
    result.certificates.push_back(solved.solved.value(lp.v[q]).pruned(1e-12));
  return result;
}

LyapunovResult LyapunovSynthesizer::synthesize_decoupled(const HybridSystem& system) const {
  LyapunovResult result;
  const std::size_t nstates = system.nstates();
  const std::size_t nvars = system.nvars();
  const std::size_t num_modes = system.modes().size();
  const Polynomial x_norm2 = poly::squared_norm(nvars, nstates);
  const std::vector<Monomial> v_support =
      options_.sparse_template
          ? sparse_state_monomials(system, options_.certificate_degree, 2)
          : state_monomials(nvars, nstates, options_.certificate_degree, 2);

  // Build one SOS program per mode: conditions (a) and (b) only touch mode q,
  // and the maximize_region objective separates across modes, so the only
  // cross-mode coupling is the jump condition (c) — re-audited below.
  std::vector<sos::SosProgram> progs;
  std::vector<PolyLin> v;
  progs.reserve(num_modes);
  v.reserve(num_modes);
  const auto box = options_.maximize_region ? hybrid::estimate_state_box(system)
                                            : std::vector<std::pair<double, double>>{};
  for (std::size_t q = 0; q < num_modes; ++q) {
    progs.emplace_back(nvars);
    progs[q].set_trace_regularization(options_.trace_regularization);
    progs[q].set_sparsity(config_);
    v.push_back(progs[q].add_poly(v_support, "V" + std::to_string(q)));
    // Pre-couple both of the mode's targets before the first multiplier is
    // drawn (same invariant as the joint path: clique bases come from the
    // full per-program csp graph, not an order-dependent prefix).
    poly::MultiplierSparsity csp = sos::multiplier_plan(nvars, config_);
    csp.couple(v[q] - PolyLin(options_.positivity_margin * x_norm2));
    csp.couple(-v[q].lie_derivative(system.modes()[q].flow));
    add_mode_conditions(progs[q], v[q], system, q, options_, x_norm2, csp);
    if (options_.maximize_region)
      progs[q].minimize(mode_moment_objective(v[q], box, nstates));
  }

  // The per-mode schedule: with warm starts on, mode 0 solves first and its
  // iterate seeds the remaining (structurally identical) mode programs.
  std::vector<AuditedSolve> solves(num_modes);
  std::vector<sos::SolveStats> stats(num_modes);
  const std::size_t failed = run_per_mode(
      num_modes, config_,
      [&](std::size_t q, const sdp::SolverConfig& config, WarmChain warm) {
        solves[q] = solve_and_audit(progs[q], config, "Lyapunov", stats[q], warm);
        return solves[q].ok();
      });
  for (const sos::SolveStats& one : stats) result.solver.merge(one);
  if (failed < num_modes) {
    result.message = "mode " + std::to_string(failed) + ": " + solves[failed].message;
    return result;
  }
  result.status = sdp::SolveStatus::Optimal;
  result.certificates.reserve(num_modes);
  for (std::size_t q = 0; q < num_modes; ++q) {
    if (solves[q].solved.status != sdp::SolveStatus::Optimal)
      result.status = solves[q].solved.status;
    result.audit.merge(solves[q].audit);
    result.certificates.push_back(solves[q].solved.value(v[q]).pruned(1e-12));
  }

  // Jump re-audit: the decoupled certificates must still be non-increasing
  // across every inter-mode jump (condition (c)); each check is a small SOS
  // feasibility program in the multipliers only. Consecutive checks share
  // one shape (PLL guards are congruent boxes), so each warm-starts from the
  // previous one.
  sdp::WarmStart jump_seed;
  for (std::size_t l = 0; l < system.jumps().size(); ++l) {
    const Jump& jump = system.jumps()[l];
    if (jump.from == jump.to) continue;
    Polynomial target = result.certificates[jump.from] -
                        compose_with_reset(result.certificates[jump.to], jump);
    if (options_.jump_margin > 0.0) target -= options_.jump_margin * x_norm2;

    sos::SosProgram check(nvars);
    check.set_trace_regularization(options_.trace_regularization);
    check.set_sparsity(config_);
    PolyLin expr(target);
    poly::MultiplierSparsity jump_csp = sos::multiplier_plan(nvars, config_);
    jump_csp.couple(expr);
    subtract_multipliers(check, expr, jump.guard, options_.multiplier_degree,
                         "jumpcheck" + std::to_string(l) + ".sigma", jump_csp);
    check.add_sos_constraint(expr, "jumpcheck" + std::to_string(l) + ".nonincrease");
    if (!solve_and_audit(check, config_, "jump check", result.solver,
                         WarmChain::through(jump_seed, config_))
             .ok()) {
      result.message = "decoupled certificates violate jump " + std::to_string(l) +
                       " non-increase";
      return result;
    }
  }

  result.success = true;
  util::log_info("lyapunov: decoupled synthesis over ", num_modes, " modes accepted, ",
                 result.solver.str());
  return result;
}

}  // namespace soslock::core
