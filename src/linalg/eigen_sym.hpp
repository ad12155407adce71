#pragma once
// Symmetric eigensolvers. Used for:
//  * the ADMM's per-block projection onto the PSD cone for blocks of size
//    >= 3 (sdp::admm_split_psd, through eigen_sym_rows and a per-block
//    EigenWork; the dominant cost of first-order solves; 1x1 and 2x2 blocks
//    split in closed form there),
//  * the exact step length to the PSD cone boundary of an IPM block whose
//    Cholesky screen fails (sdp::psd_step_length), and the PSD margin of a
//    warm-started IPM iterate (both via min_eigenvalue into per-solve
//    EigenWork storage),
//  * Gram-matrix PSD margins in the independent certificate checker
//    (min_eigenvalue),
//  * pseudo-inverses in the PSD completion of chordal clique solutions
//    (eigen_sym) and square roots of Gram matrices (sqrt_psd).
//
// One eigensolver: a top-down Householder reduction to tridiagonal form over
// whole rows of the symmetric matrix (dsytd2-style rank-2 update), then
// implicit-shift QL. The orthogonal factor is accumulated as Q^T, so each
// Givens rotation of the QL chain updates two contiguous rows
// (linalg::Kernels::rot) and row k of the result is the eigenvector of
// eigenvalue k. A rotation's radius is sqrt(f^2 + g^2) when that sum lies
// inside [2^-1000, 2^1000], and std::hypot (overflow- and underflow-safe)
// outside it, so entries anywhere in the double range decompose. One O(n^3)
// reduction plus an O(n^2)-per-eigenvalue QL sweep is an order of magnitude
// faster than cyclic Jacobi (O(n^3) *per sweep*, many sweeps) at the block
// sizes the ADMM sees; Jacobi is kept as a parity reference
// (eigen_sym_jacobi) and as the fallback on the (never observed) QL
// non-convergence path.
#include "linalg/matrix.hpp"

namespace soslock::linalg {

struct EigenSym {
  Vector values;   // ascending
  Matrix vectors;  // columns are eigenvectors, A = V diag(values) V^T
};

/// Storage of eigen_sym_rows for one matrix size, reused across calls: the
/// ADMM keeps one per PSD block, so its eigensplits allocate nothing. The
/// values-only min_eigenvalue overload uses all of it but vectors_t.
struct EigenWork {
  EigenWork() = default;
  explicit EigenWork(std::size_t n);

  Vector values;     // eigenvalues, unsorted
  Matrix vectors_t;  // row k: the unit eigenvector of values[k]
  // Scratch, unspecified between calls (a caller may borrow `reduced` as an
  // n x n buffer): the working copy of A the reduction overwrites with its
  // reflectors, the tridiagonal's off-diagonal, and the reflector scales.
  Matrix reduced;
  Vector offdiag, tau;
};

/// Full symmetric eigendecomposition into `work` (resized only when not
/// sized for a.rows()): unsorted eigenvalues and the eigenvectors as rows,
/// A = sum_k values[k] v_k v_k^T with v_k = row k of vectors_t. Falls back
/// to the Jacobi reference if QL fails to converge (50 implicit shifts per
/// eigenvalue, which does not happen on finite input).
void eigen_sym_rows(const Matrix& a, EigenWork& work);

/// Full symmetric eigendecomposition, ascending: eigen_sym_rows, sorted.
EigenSym eigen_sym(const Matrix& a);

/// Eigenvalues only (ascending): the same reduction and QL without the
/// orthogonal factor, which is most of the work. The path behind
/// min_eigenvalue.
Vector eigen_values_sym(const Matrix& a);

/// Reference implementation via cyclic Jacobi rotations. Slow; kept for
/// parity tests and as the QL fallback.
EigenSym eigen_sym_jacobi(const Matrix& a, double tol = 1e-12, int max_sweeps = 64);

/// Smallest eigenvalue only (values-only tridiagonal QL; no vectors).
double min_eigenvalue(const Matrix& a);
/// The same in `work`'s storage: reduced, values, offdiag and tau are
/// resized for a.rows() (vectors_t is not touched), so a work sized once for
/// the largest matrix serves every smaller one without allocating. The IPM's
/// step lengths and warm-start restore keep one per solve.
double min_eigenvalue(const Matrix& a, EigenWork& work);

/// Symmetric square root A^{1/2} (clamps tiny negative eigenvalues to 0).
Matrix sqrt_psd(const Matrix& a);

}  // namespace soslock::linalg
