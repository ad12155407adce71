#pragma once
// First-order ADMM backend ("admm" to make_solver): alternating-direction
// augmented-Lagrangian method on the dual SDP (the boundary-point scheme of
// Povh-Rendl-Wiegele / Wen-Goldfarb-Yin, adapted to the free-variable rows
// of our SOS relaxations):
//
//   dual:  max b'y   s.t.  C_j - sum_i y_i A_ij = S_j >= 0,   B'y = f.
//
// One iteration solves a cached m x m normal-equation system for y, projects
// per block onto the PSD cone (admm_split_psd: closed form for blocks of
// size <= 2, a Cholesky screen and linalg::eigen_sym_rows above), and takes
// a multiplier ascent step in the primal (X, w). The multiplier update
// X_j = rho * U_j^- keeps every primal block PSD by construction (a Gram
// product of the negative eigenpanel, -U_j when U_j is negative definite,
// or the closed form) and complementary to S_j up to eigensolver roundoff,
// so iterates are always certificate-shaped; accuracy is first-order
// (~1e-6).
#include <cstddef>

#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
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

/// The ADMM's per-block PSD projection: the eigensplit of a symmetric U into
/// S = U^+ and X = rho U^-, where U^+ and U^- (both PSD, U = U^+ - U^-) are
/// the parts of U on its positive and negative eigenvalues. Both are written
/// into the existing storage of `s` and `x` (resized only when not n x n);
/// `x` holds the previous X on entry, and the return value is the change
/// max_ij |X'_ij - X_ij|, the block's unscaled dual residual.
///   n <= 2: closed form on the stack, no eigensolver; `work` is unused.
///   n >= 3: in `work` (resized only when not sized for n; a sized one
///           means no allocation).
///           When a Cholesky of -U succeeds, U^- = -U without an
///           eigensolve; otherwise linalg::eigen_sym_rows, with U^- rebuilt
///           as a Gram product of the scaled negative eigenvectors so X
///           keeps its certificate shape.
/// A NaN in U comes back as a non-finite entry of S or X.
double admm_split_psd(const linalg::Matrix& u, double rho, linalg::Matrix& s,
                      linalg::Matrix& x, linalg::EigenWork& work);

}  // namespace soslock::sdp
