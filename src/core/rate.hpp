#pragma once
// Certified exponential convergence rates — the quantitative companion of
// the inevitability property, connecting to the "time to locking" property
// verified by Althoff et al. [2] and Lin et al. [6] (paper Sec. 1.1).
//
// Given a Lyapunov certificate V for a mode's flow, we maximize alpha with
//   -dV/dx·f - alpha*V ∈ Σ on C x U      (S-procedure as usual)
// so V(x(t)) <= V(x(0)) e^{-alpha t} along all flows in the domain. Combined
// with bounds  m*||x||^2 <= V <= M*||x||^2  (also certified here), this gives
// an explicit bound on the time to reach any sublevel set — e.g. the time to
// phase lock from the initial region.
#include <utility>

#include "hybrid/system.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"

namespace soslock::core {

struct RateOptions {
  unsigned multiplier_degree = 2;
  double alpha_cap = 100.0;   // keeps the maximisation bounded
  double trace_regularization = 1e-7;
};

struct RateResult {
  bool success = false;
  double alpha = 0.0;         // certified decay rate of V
  /// Certified quadratic envelope m*||x||^2 <= V <= M*||x||^2 on the domain
  /// (0 when the corresponding bound could not be certified).
  double lower_quadratic = 0.0;   // m
  double upper_quadratic = 0.0;   // M
  sos::AuditReport audit;
  sos::SolveStats solver;          // backend telemetry (all three programs)
  std::string message;

  /// Upper bound on the time for ||x|| to fall below `radius` starting from
  /// ||x0|| <= initial_radius:  t <= (1/alpha) ln( M r0^2 / (m r^2) ).
  double time_to_reach(double initial_radius, double radius) const;
};

class RateCertifier {
 public:
  explicit RateCertifier(RateOptions options = {}, sdp::SolverConfig config = {})
      : options_(options), config_(std::move(config)) {}

  /// Certify a decay rate of `v` along mode `q` of `system`.
  RateResult certify(const hybrid::HybridSystem& system, std::size_t q,
                     const poly::Polynomial& v) const;

 private:
  RateOptions options_;
  sdp::SolverConfig config_;
  /// Iterates of the most recent rate / quadratic-envelope solves, replayed
  /// into the next certify() call (per-mode certification loops share one
  /// compiled shape per program family; a mismatched blob is rejected by its
  /// fingerprint and solves cold). Gated by SolverConfig::warm_start; the
  /// certifier is driven sequentially, so no synchronization is needed.
  mutable sdp::WarmStart rate_warm_, lower_warm_, upper_warm_;
};

}  // namespace soslock::core
