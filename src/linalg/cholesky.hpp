#pragma once
// Cholesky factorization of symmetric positive definite matrices, plus a
// shifted variant used by the IPM when the Schur complement is nearly
// singular at the end of the central path.
#include <optional>

#include "linalg/matrix.hpp"

namespace soslock::linalg {

/// Lower-triangular Cholesky factor; A = L L^T.
class Cholesky {
 public:
  /// Factor `a` (must be symmetric). Returns nullopt if not numerically PD.
  static std::optional<Cholesky> factor(const Matrix& a);

  /// Factor with adaptive diagonal shift: tries shifts 0, eps, 10*eps, ...
  /// relative to the diagonal magnitude until the factorization succeeds.
  /// Records the shift actually applied.
  static Cholesky factor_shifted(const Matrix& a, double initial_rel_shift = 0.0);

  /// Solve A x = b.
  Vector solve(const Vector& b) const;
  /// Solve A X = B column-wise.
  Matrix solve(const Matrix& b) const;
  /// Solve L y = b (forward substitution).
  Vector solve_lower(const Vector& b) const;
  /// Solve L^T x = y (back substitution).
  Vector solve_lower_transposed(const Vector& y) const;

  /// Explicit (A + shift I)^{-1} = L^{-T} L^{-1}, symmetrized. Cheaper than
  /// n right-hand-side solves and turns repeated A^{-1} S applications into
  /// GEMMs (the IPM computes it once per block per iteration).
  Matrix inverse() const;

  const Matrix& lower() const { return l_; }
  double shift() const { return shift_; }
  /// log(det A) = 2 * sum log L_ii.
  double log_det() const;

 private:
  Matrix l_;
  double shift_ = 0.0;
};

/// Convenience: is the symmetric matrix numerically positive definite
/// (allowing diagonal shift `tol * max|diag|`)?
bool is_positive_definite(const Matrix& a, double tol = 0.0);

}  // namespace soslock::linalg
