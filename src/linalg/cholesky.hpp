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
  /// factor_shifted into this object: same shift ladder, same bits, but the
  /// factor reuses the storage of the previous one when the size matches
  /// (the IPM refactors its Schur blocks every iteration). `scale` is the
  /// magnitude the relative shifts refer to; 0 means the largest |diagonal|
  /// of `a` (a diagonal block of a larger system passes the whole system's).
  /// `panel` is the trailing updates' scratch (see factor_in_place).
  void refactor_shifted(const Matrix& a, double initial_rel_shift = 0.0,
                        double scale = 0.0, Vector* panel = nullptr);

  /// Solve A x = b.
  Vector solve(const Vector& b) const;
  /// Solve A X = B for every column of B at once: solve_lower(B), then a
  /// row-contiguous multi-RHS back substitution. B is taken by value and
  /// solved in place, so a temporary right-hand side costs no copy.
  Matrix solve(Matrix b) const;
  /// Solve L y = b (forward substitution).
  Vector solve_lower(const Vector& b) const;
  /// Solve L Y = B for every column of B at once (blocked multi-RHS forward
  /// trsm on row-major B: GEMM panel updates plus in-panel axpy rows), in
  /// place on the by-value B.
  Matrix solve_lower(Matrix b) const;
  /// The same solve in place on `x`. `acc` is the panel updates' scratch,
  /// resized to solve_scratch_size(rows, x.cols()); a caller that reserves
  /// the largest size it will need up front allocates nothing here.
  void solve_lower_in_place(Matrix& x, Vector& acc) const;
  /// Doubles of scratch the multi-RHS forward solve of a rows x cols
  /// right-hand side uses (0 when rows fit one panel).
  static std::size_t solve_scratch_size(std::size_t rows, std::size_t cols);
  /// Solve L^T x = y (back substitution).
  Vector solve_lower_transposed(const Vector& y) const;
  /// The two vector solves in place on n = lower().rows() contiguous
  /// entries (a span of a larger work vector).
  void solve_lower_in_place(double* x) const;
  void solve_lower_transposed_in_place(double* x) const;

  /// Explicit (A + shift I)^{-1} = L^{-T} L^{-1}, symmetrized, written into
  /// `x` (reshaped only when it is not n x n). Cheaper than n right-hand-side
  /// solves and turns repeated A^{-1} S applications into GEMMs (the IPM
  /// computes it once per block per iteration, into per-solve storage).
  void inverse(Matrix& x) const;

  const Matrix& lower() const { return l_; }
  double shift() const { return shift_; }
  /// log(det A) = 2 * sum log L_ii.
  double log_det() const;

 private:
  Matrix l_;
  double shift_ = 0.0;
};

/// Unshifted Cholesky of the symmetric `a` in its own storage: true when
/// every pivot is positive (`a` is numerically positive definite), with L
/// in the lower triangle of `a` (the strict upper triangle is left
/// unspecified); false at the first non-positive pivot, with `a` partly
/// overwritten. Above one 48-wide panel the vector kernels' trailing
/// updates need a scratch panel: `panel` is grown to the largest one on
/// first use and reused after, so a caller that factors many matrices with
/// one `panel` allocates nothing once it has seen the largest; null
/// allocates per update.
bool factor_in_place(Matrix& a, Vector* panel = nullptr);

}  // namespace soslock::linalg
