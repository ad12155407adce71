#pragma once
// Bounded advection of polynomial level sets (the paper's Eq. 6, extending
// Wang-Lall-West to hybrid systems). One step finds a polynomial b_next whose
// backward first-order-Taylor advection sandwiches the previous set:
//
//   S(b_prev)  ⊆  S(T_q b_next + gamma)            (progress, per mode q)
//   S(T_q b_next - gamma)  ⊆  S(b_prev - eps)      (bounded step, per mode)
//   |R_q| <= kappa on S(b_prev - eps) ∩ C_q        (Taylor truncation bound)
//
// where T_q b = b - h * grad(b)·f_q is the first-order backward advection map
// and R_q = (h^2/2) f_q' Hess(b) f_q the second-order term, with kappa <=
// gamma so the chain S(b_prev) ⊆ E_{-h}(S(b_next)) is rigorous. All mode
// domains C_q and the parameter box constrain each condition through the
// S-procedure. Because all jump maps are identity after the Remark-1
// reduction, level sets pass through jumps unchanged (paper's Remark 2) and
// one common b covers all modes.
#include <utility>
#include <vector>

#include "hybrid/system.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"

namespace soslock::core {

struct AdvectionOptions {
  double h = 0.05;                  // advection time step (normalized time)
  double gamma = 0.02;              // precision parameter
  double eps = 0.5;                 // per-step inflation bound (bisected up)
  double curvature_fraction = 0.5;  // kappa = fraction * gamma
  unsigned set_degree = 2;          // degree of the advected polynomials
  unsigned multiplier_degree = 2;
  double origin_margin = 1e-3;      // b_next(0) <= -margin
  int eps_retries = 4;              // eps doublings when infeasible
  double trace_regularization = 1e-7;
  /// Volume-proxy tightness objective: maximize the integral of b_next over
  /// this box (per-state bounds), so the sublevel set hugs the forward image
  /// instead of drifting outward within the sandwich slack. Empty = derive
  /// from the union of affine mode-domain bounds (fallback [-1, 1]).
  std::vector<std::pair<double, double>> integration_box;
  /// Bound on |coefficients| of b_next; keeps the volume-proxy maximisation
  /// bounded (outside S(b_prev) the constraints do not cap b_next above).
  double coeff_cap = 50.0;
  /// Constant S-procedure multiplier lambda on (T b_next - gamma) in the
  /// bounded-step condition (B); valid for any lambda >= 0, and lambda > 1
  /// is needed when b_prev grows faster than T b_next at infinity. A small
  /// ladder {1, lambda, lambda^2} is tried automatically.
  double preimage_multiplier = 2.0;
  /// Accepted iterates are rescaled so b(0) = -origin_normalization,
  /// preventing unbounded steepening across iterations (the set is
  /// scale-invariant).
  double origin_normalization = 0.5;
};

struct AdvectionStepResult {
  bool success = false;
  poly::Polynomial next;
  double eps_used = 0.0;
  sos::AuditReport audit;
  sos::SolveStats solver;  // backend telemetry for Table-2 rows
  std::string message;
};

class AdvectionEngine {
 public:
  AdvectionEngine(const hybrid::HybridSystem& system, AdvectionOptions options,
                  sdp::SolverConfig config = {})
      : system_(system), options_(options), config_(std::move(config)) {}

  /// One advection step from the level set {b_prev <= 0}.
  AdvectionStepResult step(const poly::Polynomial& b_prev) const;

  const AdvectionOptions& options() const { return options_; }

 private:
  AdvectionStepResult step_with_eps(const poly::Polynomial& b_prev, double eps,
                                    double lambda) const;

  const hybrid::HybridSystem& system_;
  AdvectionOptions options_;
  sdp::SolverConfig config_;
  /// Iterate of the most recent SDP solve, replayed into the next attempt
  /// when the compiled structure matches (the eps/lambda retry ladder and
  /// successive advection steps share one program shape, so nearly every
  /// solve after the first starts warm). Gated by SolverConfig::warm_start;
  /// the engine is driven sequentially, so no synchronization is needed.
  mutable sdp::WarmStart warm_cache_;
};

}  // namespace soslock::core
