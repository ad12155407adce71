#pragma once
// Symmetric eigensolvers. Used for:
//  * the exact step length to the PSD cone boundary of an IPM block whose
//    Cholesky screen fails (sdp::psd_step_length),
//  * the ADMM's per-block projection onto the PSD cone for blocks of size
//    >= 3 (dominant cost of first-order solves on large Gram blocks; 1x1
//    and 2x2 blocks split in closed form in sdp::admm_split_psd),
//  * Gram-matrix PSD margins in the independent certificate checker,
//  * extracting SOS decompositions (square roots of Gram matrices).
//
// The production path (eigen_sym / eigen_values_sym) is Householder
// tridiagonalization followed by implicit-shift QL: one O(n^3)
// tridiagonalization plus an O(n^2)-per-eigenvalue QL sweep, an order of
// magnitude faster than cyclic Jacobi (O(n^3) *per sweep*, many sweeps) at
// the block sizes the ADMM sees. The Jacobi path is kept as a reference
// implementation (eigen_sym_jacobi), selectable for parity tests and as the
// fallback on the (never observed) QL non-convergence path.
#include "linalg/matrix.hpp"

namespace soslock::linalg {

struct EigenSym {
  Vector values;   // ascending
  Matrix vectors;  // columns are eigenvectors, A = V diag(values) V^T
};

/// Full symmetric eigendecomposition: Householder tridiagonalization +
/// implicit-shift QL. Falls back to the Jacobi reference if QL fails to
/// converge (50 implicit shifts per eigenvalue, which does not happen on
/// finite input).
EigenSym eigen_sym(const Matrix& a);

/// Eigenvalues only (ascending): skips the eigenvector accumulation, which
/// is most of the work of eigen_sym. The fast path behind min_eigenvalue.
Vector eigen_values_sym(const Matrix& a);

/// Reference implementation via cyclic Jacobi rotations. Slow; kept for
/// parity tests and as the eigen_sym fallback.
EigenSym eigen_sym_jacobi(const Matrix& a, double tol = 1e-12, int max_sweeps = 64);

/// Smallest eigenvalue only (values-only tridiagonal QL; no vectors).
double min_eigenvalue(const Matrix& a);

/// Symmetric square root A^{1/2} (clamps tiny negative eigenvalues to 0).
Matrix sqrt_psd(const Matrix& a);

}  // namespace soslock::linalg
