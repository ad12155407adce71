#pragma once
// ISA-dispatched dense micro-kernels behind the linalg hot paths (GEMM,
// Cholesky, the eigensolver's Householder reduction and QL rotations, Schur
// syrk updates). One Kernels table per instruction set; the active table is
// resolved once at startup from the CPU probe (util/cpu) intersected with
// what the build compiled in, overridable with
// SOSLOCK_SIMD=scalar|avx2|avx512|neon.
//
// Contract conventions:
//   - All pointers are raw row-major panels with explicit leading
//     dimensions; callers guarantee no aliasing between inputs and outputs
//     unless a kernel documents in-place operation.
//   - The scalar table reproduces the pre-SIMD loop nests *operation for
//     operation* (same accumulation order, no FMA contraction), so each
//     scalar kernel is bit-identical to its historical reference loop. This
//     is the always-correct reference path the parity suite tests every
//     other ISA against.
//   - Vector tables keep the per-element accumulation *order* of the scalar
//     path for the elementwise kernels (gemm_acc, syrk_sub_upper, axpy,
//     sub_scaled2, rot) — they differ only by FMA contraction, so parity
//     there is a fused-multiply-add question, not a reduction-order
//     question. The reduction kernels (dot, dot_sub and the
//     triangular solves) split sums across lanes or reorder them and are
//     parity-tested to ulp-scaled bounds instead.
#include <cstddef>

#include "util/cpu.hpp"

namespace soslock::linalg {

struct Kernels {
  util::SimdIsa isa = util::SimdIsa::Scalar;

  /// C += A * B. A is m x kk (lda), B kk x n (ldb), C m x n (ldc).
  /// Register-tiled panel micro-kernel; per-element accumulation runs in k
  /// order, so results are reduction-order-identical across ISAs.
  void (*gemm_acc)(std::size_t m, std::size_t n, std::size_t kk, const double* a,
                   std::size_t lda, const double* b, std::size_t ldb, double* c,
                   std::size_t ldc);

  /// Upper triangle of C -= W^T W. W is k x n (ldw), C n x n (ldc). The
  /// caller mirrors the triangle if it needs the full matrix (Schur overlap
  /// elimination / decomposed-cone syrk shape).
  void (*syrk_sub_upper)(std::size_t n, std::size_t k, const double* w, std::size_t ldw,
                         double* c, std::size_t ldc);

  /// y[0..n) += f * x[0..n) — the fused scale-and-accumulate every rank-1
  /// row update rides on (Schur panels, Cholesky inverse, axpy).
  void (*axpy)(double f, const double* x, double* y, std::size_t n);

  /// y[0..n) -= f * a[0..n) + g * b[0..n) — the Householder two-sided
  /// rank-2 row update of the tridiagonalization.
  void (*sub_scaled2)(double f, const double* a, double g, const double* b, double* y,
                      std::size_t n);

  /// Givens rotation of two rows, in place: for each k, with the old
  /// values, y[k] = s * x[k] + c * y[k] and x[k] = c * x[k] - s * y[k] —
  /// one QL rotation applied to rows i (x) and i+1 (y) of the eigensolver's
  /// Q^T. Vector tables fuse each s-product onto the rounded c-product:
  /// y = fma(s, x, c*y), x = fma(-s, y, c*x).
  void (*rot)(double c, double s, double* x, double* y, std::size_t n);

  /// Plain dot product (pure-sum reduction sites: Cholesky trailing syrk,
  /// Householder column norms, Frobenius inner products, gemv rows).
  double (*dot)(const double* a, const double* b, std::size_t n);

  /// s - sum_k a[k] * b[k]. Kept separate from dot because the scalar
  /// implementation must *alternate* subtractions (s -= a*b per term, the
  /// historical substitution order) to stay bit-identical, while vector
  /// implementations subtract one lane-reduced sum.
  double (*dot_sub)(double s, const double* a, const double* b, std::size_t n);

  /// Blocked-Cholesky trailing update A22 -= L21 * L21^T over the lower
  /// triangle. `base` points at the first trailing row's panel segment
  /// (= &l(t0, k0)): row r's multipliers are base[r*ld .. +kb) and its
  /// destination cells base[r*ld + kb + j] for j in [0, r]. Scalar is the
  /// historical per-element plain dot, subtracted once, bit for bit. Vector
  /// implementations may restructure freely (transpose + register-tiled
  /// GEMM) and MAY overwrite the dead strictly-upper cells (j > r) of the
  /// trailing block with unspecified values — the factorization zeroes the
  /// strict upper triangle on success, so only the lower triangle is
  /// contractual.
  void (*chol_trailing_update)(std::size_t ntrail, std::size_t kb, double* base,
                               std::size_t ld);

  /// One blocked-Cholesky panel round minus the trailing update: factor the
  /// kb x kb diagonal block in place (rows 0..kb of `block`, stride ldb,
  /// dots over the leading [0, j) columns), then solve the nrows trailing
  /// rows (rows kb..kb+nrows of the same panel) against it. Returns false on
  /// a non-positive or non-finite pivot. Scalar preserves the historical
  /// element order (alternating dot_sub, *inv inside the block, /pivot in
  /// the trailing solve) bit for bit; vector implementations walk columns
  /// outer and batch rows so the short panel-width reductions share loads
  /// and pay one dispatch per panel instead of one per element.
  bool (*chol_factor_panel)(std::size_t kb, std::size_t nrows, double* block,
                            std::size_t ldb);

  /// In-place forward substitution: solve L x = b for lower-triangular L
  /// (n x n, ldl), x = b on entry.
  void (*trsv_lower)(std::size_t n, const double* l, std::size_t ldl, double* x);

  /// In-place back substitution: solve L^T x = b, x = b on entry. Scalar is
  /// the historical dot form (column k of L, stride ldl); vector tables use
  /// the axpy form — x[k] /= L[k,k], then x[0,k) -= x[k] * L[k,0..k) — so
  /// every read of L is a contiguous row segment.
  void (*trsv_lower_t)(std::size_t n, const double* l, std::size_t ldl, double* x);
};

/// The always-compiled scalar reference table.
const Kernels& scalar_kernels();

/// Table for `isa`, or nullptr when the build did not compile it in or the
/// hardware cannot run it. scalar always resolves.
const Kernels* kernels_for(util::SimdIsa isa);

/// The table resolved at startup: strongest ISA that is compiled in AND
/// hardware-supported, clamped by the SOSLOCK_SIMD override.
const Kernels& active_kernels();
util::SimdIsa active_isa();

/// Swap the dispatched table (tests and the scalar-vs-SIMD bench A/B). Not
/// thread-safe: call only while no solver threads are running. Returns the
/// previously active ISA; requesting an unavailable ISA is a no-op.
util::SimdIsa set_active_isa(util::SimdIsa isa);

// Per-ISA table exporters. Each TU is compiled with (only) its own ISA
// flags and returns nullptr when the build lacks them (e.g. the NEON TU on
// x86), so dispatch never needs build-system knowledge beyond the file
// list. Exposed for the dispatcher and the parity suite, not for callers.
const Kernels* kernels_avx2();
const Kernels* kernels_avx512();
const Kernels* kernels_neon();

}  // namespace soslock::linalg
