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
#include "sdp/options.hpp"
#include "sdp/problem.hpp"
#include "sdp/solver.hpp"

namespace soslock::sdp {

class AdmmSolver : public SolverBackend {
 public:
  explicit AdmmSolver(AdmmOptions options = {}) : options_(options) {}

  using SolverBackend::solve;
  Solution solve(const Problem& problem, SolveContext& context) const override;

  std::string name() const override { return "admm"; }

 private:
  AdmmOptions options_;
};

}  // namespace soslock::sdp
