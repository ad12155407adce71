#pragma once
// First-order ADMM backend ("admm" to make_solver): alternating-direction
// augmented-Lagrangian method on the dual SDP (the boundary-point scheme of
// Povh-Rendl-Wiegele / Wen-Goldfarb-Yin, adapted to the free-variable rows
// of our SOS relaxations):
//
//   dual:  max b'y   s.t.  C_j - sum_i y_i A_ij = S_j >= 0,   B'y = f.
//
// One iteration solves a cached m x m normal-equation system for y, projects
// per block onto the PSD cone (via linalg::eigen_sym), and takes a multiplier
// ascent step in the primal (X, w). The multiplier update X_j = rho * U_j^-
// keeps every primal block PSD by construction (a Gram product of the
// negative eigenpanel) and complementary to S_j up to eigensolver roundoff, so
// iterates are always certificate-shaped; accuracy is first-order (~1e-6).
#include <cstddef>

#include "sdp/options.hpp"
#include "sdp/problem.hpp"
#include "sdp/solver.hpp"

namespace soslock::sdp {

class AdmmSolver : public SolverBackend {
 public:
  /// `threads` = workers for the per-iteration PSD projections (one
  /// eigendecomposition per block; blocks are independent), the only
  /// intra-solve fan-out of either backend. 0 = hardware count; 1 = serial.
  /// Deterministic across thread counts (disjoint per-block writes,
  /// order-independent max-reduction).
  explicit AdmmSolver(AdmmOptions options = {}, std::size_t threads = 1)
      : options_(options), threads_(threads) {}

  using SolverBackend::solve;
  Solution solve(const Problem& problem, SolveContext& context) const override;

  std::string name() const override { return "admm"; }
  std::size_t threads() const { return threads_; }

 private:
  AdmmOptions options_;
  std::size_t threads_;
};

}  // namespace soslock::sdp
