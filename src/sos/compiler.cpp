// Compilation of an SosProgram to the block SDP of sdp/problem.hpp, and the
// end-to-end solve() that extracts certificates from the solver iterate.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <memory>

#include "sdp/lowering.hpp"
#include "sos/program.hpp"
#include "util/log.hpp"

namespace soslock::sos {

using poly::LinExpr;

sdp::Problem SosProgram::compile() const {
  sdp::Problem prob;

  // Gram blocks come first so gram block g == SDP block g.
  for (const GramBlock& g : gram_blocks_) prob.add_block(g.basis.size());

  // Free variables in their registration order.
  for (std::size_t v = 0; v < var_is_free_.size(); ++v) {
    if (var_is_free_[v]) {
      const std::size_t idx = prob.add_free(0.0);
      assert(idx == var_free_index_[v]);
      (void)idx;
    }
  }

  auto add_expr_to_row = [this](const LinExpr& expr, sdp::Row& row) {
    row.rhs = -expr.constant();
    for (const auto& [var, coeff] : expr.coeffs()) {
      const auto v = static_cast<std::size_t>(var);
      assert(v < var_is_free_.size());
      if (var_is_free_[v]) {
        row.free_coeffs[var_free_index_[v]] += coeff;
      } else {
        const GramRef& g = var_gram_ref_[v];
        // The decision variable is the matrix entry G_rc (mirrored); in
        // <A, X> an off-diagonal coefficient pair contributes twice.
        add_gram_coeff(row.blocks[g.block], g, coeff);
      }
    }
  };

  // Polynomial coefficient-matching rows.
  for (const EqRow& er : eq_rows_) {
    sdp::Row row;
    row.label = er.label.empty() ? er.monomial.str() : er.label + ":" + er.monomial.str();
    add_expr_to_row(er.expr, row);
    prob.add_row(std::move(row));
  }

  // Scalar linear rows; inequalities get a 1x1 slack block.
  for (const LinRow& lr : linear_rows_) {
    sdp::Row row;
    row.label = lr.label;
    add_expr_to_row(lr.expr, row);
    if (!lr.is_equality) {
      const std::size_t slack = prob.add_block(1);
      sdp::SparseSym s;
      s.add(0, 0, -1.0);
      row.blocks[slack] = std::move(s);
    }
    prob.add_row(std::move(row));
  }

  // Objective: free coefficients and Gram-entry coefficients, the latter as
  // triplets exactly like a row's.
  {
    std::vector<sdp::SparseSym> block_obj;
    block_obj.reserve(gram_blocks_.size());
    const double reg = std::max(trace_reg_, 0.0);
    for (const GramBlock& g : gram_blocks_)
      block_obj.push_back(sdp::SparseSym::diagonal(g.basis.size(), reg));
    for (const auto& [var, coeff] : objective_.coeffs()) {
      const auto v = static_cast<std::size_t>(var);
      if (var_is_free_[v]) {
        prob.set_free_objective(var_free_index_[v], coeff);
      } else {
        const GramRef& g = var_gram_ref_[v];
        add_gram_coeff(block_obj[g.block], g, coeff);
      }
    }
    for (std::size_t j = 0; j < gram_blocks_.size(); ++j)
      prob.set_block_objective(j, std::move(block_obj[j]));
  }

  return prob;
}

void SosProgram::add_gram_coeff(sdp::SparseSym& a, const GramRef& g, double coeff) {
  if (g.r == g.c) {
    a.add(g.r, g.c, coeff);
  } else {
    a.add(g.r, g.c, 0.5 * coeff);
  }
}

SolveResult SosProgram::solve(const sdp::SolverConfig& config,
                              const sdp::WarmStart* warm) const {
  const std::unique_ptr<sdp::SolverBackend> backend = sdp::make_solver(config);
  sdp::SolveContext context;
  context.time_budget_seconds = config.time_budget_seconds;
  context.warm_start = warm;
  return solve(*backend, context);
}

SolveResult SosProgram::solve(const sdp::SolverBackend& backend,
                              sdp::SolveContext& context) const {
  // Staged lowering pipeline (sdp/lowering) with the default options:
  // support/csp analysis happened at constraint-add time (the correlative
  // Gram split), so only the analyze and equilibrate passes run here.
  const sdp::Lowering lowering = sdp::lower(compile(), {});
  return solve_lowered(backend, context, lowering);
}

SolveResult SosProgram::solve(const sdp::SolverBackend& backend, sdp::SolveContext& context,
                              sdp::LoweringCache& cache) const {
  // Same pipeline, but through the caller's cache: a repeat of the cached
  // structure takes the in-place coefficient-update pass instead of
  // re-running the pipeline (sweep hot path).
  const sdp::Lowering& lowering = cache.lower(compile(), {});
  return solve_lowered(backend, context, lowering);
}

SolveResult SosProgram::solve_lowered(const sdp::SolverBackend& backend,
                                      sdp::SolveContext& context,
                                      const sdp::Lowering& lowering) const {
  const sdp::Problem& prob = lowering.problem;
  util::log_info("sos: solving ", prob.stats());

  // Warm blobs live in the base (pre-lowering) space: a blob applies when
  // its fingerprint matches the compiled structure, and remap_warm_start
  // scales it into this lowering's equilibrated rows, with a drift guard on
  // its block shapes. The caller's pointer
  // is restored even if the backend throws — lowered_warm dies with this
  // frame, and the caller-owned context must never keep a pointer to it.
  const sdp::WarmStart* caller_warm = context.warm_start;
  sdp::WarmStart lowered_warm;
  context.warm_start = nullptr;
  if (caller_warm != nullptr && !caller_warm->empty() &&
      caller_warm->fingerprint == lowering.base_fingerprint) {
    lowered_warm = sdp::remap_warm_start(*caller_warm, lowering);
    if (!lowered_warm.empty()) context.warm_start = &lowered_warm;
  }
  sdp::Solution sol;
  try {
    sol = backend.solve(prob, context);
  } catch (...) {
    context.warm_start = caller_warm;
    throw;
  }
  context.warm_start = caller_warm;
  // Cone-size telemetry: the largest PSD block the backend worked on.
  for (std::size_t j = 0; j < prob.num_blocks(); ++j)
    sol.max_cone = std::max(sol.max_cone, prob.block_size(j));
  // Divergence test for the warm-start export below, taken in the
  // equilibrated space the solver worked in (the unscaled duals can be
  // legitimately huge when a row scale is tiny).
  const double y_scale = sol.y.empty() ? 0.0 : linalg::norm_inf(sol.y);
  // Back to the compiled rows: un-equilibrated duals (stamps
  // PhaseTimes::convert so the lowering shows up in the telemetry).
  sol = sdp::recover(std::move(sol), lowering);

  // Export the recovered iterate as a base-space blob for the next
  // structurally identical compile.
  sdp::WarmStart warm_blob;
  if (std::isfinite(y_scale) && y_scale < 1e8) {
    warm_blob = sdp::make_warm_start(sol, lowering.base_fingerprint);
  }

  SolveResult result;
  result.status = sol.status;
  result.warm = std::move(warm_blob);
  result.sdp = std::move(sol);  // the iterate is read from result.sdp below
  // "feasible" = the iterate satisfies the constraints to working tolerance.
  // Callers that extract certificates must still pass them through
  // sos::audit, which is the actual soundness verdict; a stalled-but-valid
  // iterate (small residual, mediocre gap) is acceptable there, merely
  // suboptimal in the objective.
  result.feasible =
      result.status == sdp::SolveStatus::Optimal ||
      ((result.status == sdp::SolveStatus::MaxIterations ||
        result.status == sdp::SolveStatus::Interrupted) &&
       result.sdp.primal_residual < 1e-5 && result.sdp.gap < 5e-3 &&
       result.sdp.dual_residual < 1e-4);

  // Assemble the full decision-variable vector.
  result.decision_values.assign(var_is_free_.size(), 0.0);
  for (std::size_t v = 0; v < var_is_free_.size(); ++v) {
    if (var_is_free_[v]) {
      result.decision_values[v] =
          result.sdp.w.empty() ? 0.0 : result.sdp.w[var_free_index_[v]];
    } else {
      const GramRef& g = var_gram_ref_[v];
      if (g.block < result.sdp.x.size())
        result.decision_values[v] = result.sdp.x[g.block](g.r, g.c);
    }
  }

  // Extract Gram certificates.
  result.grams.reserve(gram_blocks_.size());
  for (std::size_t j = 0; j < gram_blocks_.size(); ++j) {
    GramCertificate cert;
    cert.basis = gram_blocks_[j].basis;
    cert.label = gram_blocks_[j].label;
    if (j < result.sdp.x.size()) cert.gram = result.sdp.x[j];
    result.grams.push_back(std::move(cert));
  }

  const double min_value = objective_.eval(result.decision_values);
  result.objective = objective_is_max_ ? -min_value : min_value;
  // result.warm was exported above (post-recovery, base space) for the next
  // structurally identical compile, including from Interrupted/stalled best
  // iterates (what a retry loop resumes from) and from
  // infeasible-classified solves (whose iterate is the natural seed for the
  // next attempt in a sequence of infeasible checks, e.g. the
  // not-yet-immersed inclusion chain). The exception is a *divergent*
  // iterate — replaying a divergence ray poisons whatever solve it seeds —
  // detected by magnitude in the equilibrated space. The 1e8 cutoff is a
  // fixed heuristic chosen above the largest legitimate stalled duals seen
  // in the pipeline (~1e7 on the advection programs); it is deliberately not
  // tied to any backend option, since this layer cannot see which backend
  // (or threshold) produced the iterate.
  return result;
}

bool solve_hard_failed(const SolveResult& result) {
  return result.status == sdp::SolveStatus::PrimalInfeasible ||
         result.status == sdp::SolveStatus::DualInfeasible ||
         result.sdp.primal_residual > 1e-4;
}

void SolveStats::absorb(const SolveResult& result) {
  if (backend.empty()) {
    backend = result.sdp.backend;
  } else if (backend != result.sdp.backend && !result.sdp.backend.empty()) {
    backend = "mixed";
  }
  ++solves;
  iterations += result.sdp.iterations;
  seconds += result.sdp.solve_seconds;
  max_cone = std::max(max_cone, result.sdp.max_cone);
  phase.merge(result.sdp.phase);
  recoveries += static_cast<int>(result.sdp.recoveries.size());
}

void SolveStats::merge(const SolveStats& other) {
  if (other.solves == 0) return;
  if (backend.empty()) {
    backend = other.backend;
  } else if (backend != other.backend) {
    backend = "mixed";
  }
  solves += other.solves;
  iterations += other.iterations;
  seconds += other.seconds;
  max_cone = std::max(max_cone, other.max_cone);
  phase.merge(other.phase);
  recoveries += other.recoveries;
}

std::string SolveStats::str() const {
  if (solves == 0) return {};
  char buf[144];
  const int len = std::snprintf(buf, sizeof(buf), "backend=%s solves=%d iters=%d (%.2fs)",
                                backend.empty() ? "?" : backend.c_str(), solves,
                                iterations, seconds);
  if (recoveries > 0 && len > 0 && static_cast<std::size_t>(len) < sizeof(buf)) {
    std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len),
                  " recoveries=%d", recoveries);
  }
  return buf;
}

}  // namespace soslock::sos
