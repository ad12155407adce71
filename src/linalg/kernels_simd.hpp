#pragma once
// Generic SIMD kernel bodies shared by the per-ISA translation units
// (kernels_avx2/avx512/neon.cpp). Each ISA supplies a double-precision
// vector trait and instantiates make_table<>; this header
// never touches intrinsics itself, so it compiles in every TU regardless of
// the enabled instruction set.
//
// A trait V provides:
//   V::W            lane count (std::size_t)
//   V::elem         element type (double)
//   V::vec          the register type
//   V::zero()                       all-zero register
//   V::set1(e)                      broadcast
//   V::loadu(p) / V::storeu(p, v)   unaligned load/store
//   V::add(a, b), V::mul(a, b)
//   V::fmadd(a, b, c)  = a * b + c  (fused)
//   V::fnmadd(a, b, c) = c - a * b  (fused)
//   V::reduce_add(v)                lane sum
//
// Parity contract with the scalar reference (see kernels.hpp): the
// elementwise kernels (gemm, syrk, axpy, sub_scaled2, rot) keep
// the scalar per-element k-order and differ only by FMA fusing, so their
// remainder lanes must use std::fma to stay exactly reproducible by a fused
// sequential reference. The reduction kernels (dot, dot_sub, trsv_lower)
// split sums across lanes, and trsv_lower_t runs in axpy rather than dot
// order; all of them are only ulp-bounded against scalar.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/kernels.hpp"

namespace soslock::linalg::simd_detail {

template <class V>
inline typename V::elem vdot(const typename V::elem* a, const typename V::elem* b,
                             std::size_t n) {
  constexpr std::size_t W = V::W;
  typename V::vec acc0 = V::zero();
  typename V::vec acc1 = V::zero();
  std::size_t i = 0;
  for (; i + 2 * W <= n; i += 2 * W) {
    acc0 = V::fmadd(V::loadu(a + i), V::loadu(b + i), acc0);
    acc1 = V::fmadd(V::loadu(a + i + W), V::loadu(b + i + W), acc1);
  }
  for (; i + W <= n; i += W) acc0 = V::fmadd(V::loadu(a + i), V::loadu(b + i), acc0);
  typename V::elem s = V::reduce_add(V::add(acc0, acc1));
  for (; i < n; ++i) s = std::fma(a[i], b[i], s);
  return s;
}

template <class V>
inline typename V::elem vdot_sub(typename V::elem s, const typename V::elem* a,
                                 const typename V::elem* b, std::size_t n) {
  return s - vdot<V>(a, b, n);
}

/// Four simultaneous dots against a shared x: each x load is reused by all
/// four rows and the horizontal reductions amortize over four rows' worth of
/// vector work — this is what makes the short (panel-width) dots of the
/// blocked Cholesky profitable to vectorize at all.
template <class V>
inline void vdot4(const double* r0, const double* r1, const double* r2, const double* r3,
                  const double* x, std::size_t n, double* s) {
  constexpr std::size_t W = V::W;
  using vec = typename V::vec;
  vec acc0 = V::zero(), acc1 = V::zero(), acc2 = V::zero(), acc3 = V::zero();
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const vec xv = V::loadu(x + i);
    acc0 = V::fmadd(V::loadu(r0 + i), xv, acc0);
    acc1 = V::fmadd(V::loadu(r1 + i), xv, acc1);
    acc2 = V::fmadd(V::loadu(r2 + i), xv, acc2);
    acc3 = V::fmadd(V::loadu(r3 + i), xv, acc3);
  }
  s[0] = V::reduce_add(acc0);
  s[1] = V::reduce_add(acc1);
  s[2] = V::reduce_add(acc2);
  s[3] = V::reduce_add(acc3);
  for (; i < n; ++i) {
    const double xi = x[i];
    s[0] = std::fma(r0[i], xi, s[0]);
    s[1] = std::fma(r1[i], xi, s[1]);
    s[2] = std::fma(r2[i], xi, s[2]);
    s[3] = std::fma(r3[i], xi, s[3]);
  }
}

template <class V>
inline bool vchol_factor_panel(std::size_t kb, std::size_t nrows, double* block,
                               std::size_t ldb) {
  // Same recurrence as the scalar kernel; the row loops below each pivot
  // column run in 4-row groups sharing the pivot-row loads, and the trailing
  // solve walks columns outer so every group's dots reuse the cached block.
  for (std::size_t j = 0; j < kb; ++j) {
    double* lj = block + j * ldb;
    const double d = lj[j] - vdot<V>(lj, lj, j);
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    lj[j] = ljj;
    const double inv = 1.0 / ljj;
    std::size_t i = j + 1;
    for (; i + 4 <= kb; i += 4) {
      double* l0 = block + i * ldb;
      double* l1 = l0 + ldb;
      double* l2 = l1 + ldb;
      double* l3 = l2 + ldb;
      double s[4];
      vdot4<V>(l0, l1, l2, l3, lj, j, s);
      l0[j] = (l0[j] - s[0]) * inv;
      l1[j] = (l1[j] - s[1]) * inv;
      l2[j] = (l2[j] - s[2]) * inv;
      l3[j] = (l3[j] - s[3]) * inv;
    }
    for (; i < kb; ++i) {
      double* li = block + i * ldb;
      li[j] = (li[j] - vdot<V>(li, lj, j)) * inv;
    }
  }
  const std::size_t rend = kb + nrows;
  std::size_t r = kb;
  for (; r + 4 <= rend; r += 4) {
    double* r0 = block + r * ldb;
    double* r1 = r0 + ldb;
    double* r2 = r1 + ldb;
    double* r3 = r2 + ldb;
    for (std::size_t j = 0; j < kb; ++j) {
      const double* lj = block + j * ldb;
      double s[4];
      vdot4<V>(r0, r1, r2, r3, lj, j, s);
      const double d = lj[j];
      r0[j] = (r0[j] - s[0]) / d;
      r1[j] = (r1[j] - s[1]) / d;
      r2[j] = (r2[j] - s[2]) / d;
      r3[j] = (r3[j] - s[3]) / d;
    }
  }
  for (; r < rend; ++r) {
    double* ri = block + r * ldb;
    for (std::size_t j = 0; j < kb; ++j) {
      const double* lj = block + j * ldb;
      ri[j] = (ri[j] - vdot<V>(ri, lj, j)) / lj[j];
    }
  }
  return true;
}

template <class V>
inline void vaxpy(typename V::elem f, const typename V::elem* x, typename V::elem* y,
                  std::size_t n) {
  constexpr std::size_t W = V::W;
  const typename V::vec fv = V::set1(f);
  std::size_t i = 0;
  for (; i + W <= n; i += W) V::storeu(y + i, V::fmadd(fv, V::loadu(x + i), V::loadu(y + i)));
  for (; i < n; ++i) y[i] = std::fma(f, x[i], y[i]);
}

template <class V>
inline void vsub_scaled2(double f, const double* a, double g, const double* b, double* y,
                         std::size_t n) {
  constexpr std::size_t W = V::W;
  const typename V::vec fv = V::set1(f);
  const typename V::vec gv = V::set1(g);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const typename V::vec t = V::fnmadd(fv, V::loadu(a + i), V::loadu(y + i));
    V::storeu(y + i, V::fnmadd(gv, V::loadu(b + i), t));
  }
  for (; i < n; ++i) y[i] = std::fma(-g, b[i], std::fma(-f, a[i], y[i]));
}

template <class V>
inline void vrot(double c, double s, double* x, double* y, std::size_t n) {
  constexpr std::size_t W = V::W;
  const typename V::vec cv = V::set1(c);
  const typename V::vec sv = V::set1(s);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const typename V::vec xv = V::loadu(x + i);
    const typename V::vec yv = V::loadu(y + i);
    V::storeu(y + i, V::fmadd(sv, xv, V::mul(cv, yv)));
    V::storeu(x + i, V::fnmadd(sv, yv, V::mul(cv, xv)));
  }
  for (; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    y[i] = std::fma(s, xi, c * yi);
    x[i] = std::fma(-s, yi, c * xi);
  }
}

template <class V>
inline void vsyrk_sub_upper(std::size_t n, std::size_t k, const double* w, std::size_t ldw,
                            double* c, std::size_t ldc) {
  constexpr std::size_t W = V::W;
  for (std::size_t a = 0; a < k; ++a) {
    const double* wr = w + a * ldw;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = wr[i];
      if (f == 0.0) continue;
      double* ci = c + i * ldc;
      const typename V::vec fv = V::set1(f);
      std::size_t j = i;
      for (; j + W <= n; j += W)
        V::storeu(ci + j, V::fnmadd(fv, V::loadu(wr + j), V::loadu(ci + j)));
      for (; j < n; ++j) ci[j] = std::fma(-f, wr[j], ci[j]);
    }
  }
}

template <class V>
inline void vgemm_acc(std::size_t m, std::size_t n, std::size_t kk, const double* a,
                      std::size_t lda, const double* b, std::size_t ldb, double* c,
                      std::size_t ldc) {
  constexpr std::size_t W = V::W;
  constexpr std::size_t kNr = 2 * W;  // C tile: 4 rows x two registers
  using vec = typename V::vec;
  std::size_t j0 = 0;
  for (; j0 + kNr <= n; j0 += kNr) {
    std::size_t i0 = 0;
    for (; i0 + 4 <= m; i0 += 4) {
      vec acc00 = V::zero(), acc01 = V::zero();
      vec acc10 = V::zero(), acc11 = V::zero();
      vec acc20 = V::zero(), acc21 = V::zero();
      vec acc30 = V::zero(), acc31 = V::zero();
      const double* a0 = a + i0 * lda;
      const double* a1 = a0 + lda;
      const double* a2 = a1 + lda;
      const double* a3 = a2 + lda;
      const double* bk = b + j0;
      for (std::size_t k = 0; k < kk; ++k, bk += ldb) {
        const vec b0 = V::loadu(bk);
        const vec b1 = V::loadu(bk + W);
        vec f = V::set1(a0[k]);
        acc00 = V::fmadd(f, b0, acc00);
        acc01 = V::fmadd(f, b1, acc01);
        f = V::set1(a1[k]);
        acc10 = V::fmadd(f, b0, acc10);
        acc11 = V::fmadd(f, b1, acc11);
        f = V::set1(a2[k]);
        acc20 = V::fmadd(f, b0, acc20);
        acc21 = V::fmadd(f, b1, acc21);
        f = V::set1(a3[k]);
        acc30 = V::fmadd(f, b0, acc30);
        acc31 = V::fmadd(f, b1, acc31);
      }
      double* c0 = c + i0 * ldc + j0;
      double* c1 = c0 + ldc;
      double* c2 = c1 + ldc;
      double* c3 = c2 + ldc;
      V::storeu(c0, V::add(V::loadu(c0), acc00));
      V::storeu(c0 + W, V::add(V::loadu(c0 + W), acc01));
      V::storeu(c1, V::add(V::loadu(c1), acc10));
      V::storeu(c1 + W, V::add(V::loadu(c1 + W), acc11));
      V::storeu(c2, V::add(V::loadu(c2), acc20));
      V::storeu(c2 + W, V::add(V::loadu(c2 + W), acc21));
      V::storeu(c3, V::add(V::loadu(c3), acc30));
      V::storeu(c3 + W, V::add(V::loadu(c3 + W), acc31));
    }
    for (; i0 < m; ++i0) {  // remainder rows, full-width tile
      vec acc0 = V::zero(), acc1 = V::zero();
      const double* ai = a + i0 * lda;
      const double* bk = b + j0;
      for (std::size_t k = 0; k < kk; ++k, bk += ldb) {
        const vec f = V::set1(ai[k]);
        acc0 = V::fmadd(f, V::loadu(bk), acc0);
        acc1 = V::fmadd(f, V::loadu(bk + W), acc1);
      }
      double* cr = c + i0 * ldc + j0;
      V::storeu(cr, V::add(V::loadu(cr), acc0));
      V::storeu(cr + W, V::add(V::loadu(cr + W), acc1));
    }
  }
  if (j0 + W <= n) {  // one register-wide remainder tile
    std::size_t i0 = 0;
    for (; i0 + 4 <= m; i0 += 4) {
      vec acc0 = V::zero(), acc1 = V::zero(), acc2 = V::zero(), acc3 = V::zero();
      const double* a0 = a + i0 * lda;
      const double* a1 = a0 + lda;
      const double* a2 = a1 + lda;
      const double* a3 = a2 + lda;
      const double* bk = b + j0;
      for (std::size_t k = 0; k < kk; ++k, bk += ldb) {
        const vec b0 = V::loadu(bk);
        acc0 = V::fmadd(V::set1(a0[k]), b0, acc0);
        acc1 = V::fmadd(V::set1(a1[k]), b0, acc1);
        acc2 = V::fmadd(V::set1(a2[k]), b0, acc2);
        acc3 = V::fmadd(V::set1(a3[k]), b0, acc3);
      }
      double* c0 = c + i0 * ldc + j0;
      V::storeu(c0, V::add(V::loadu(c0), acc0));
      V::storeu(c0 + ldc, V::add(V::loadu(c0 + ldc), acc1));
      V::storeu(c0 + 2 * ldc, V::add(V::loadu(c0 + 2 * ldc), acc2));
      V::storeu(c0 + 3 * ldc, V::add(V::loadu(c0 + 3 * ldc), acc3));
    }
    for (; i0 < m; ++i0) {
      vec acc = V::zero();
      const double* ai = a + i0 * lda;
      const double* bk = b + j0;
      for (std::size_t k = 0; k < kk; ++k, bk += ldb)
        acc = V::fmadd(V::set1(ai[k]), V::loadu(bk), acc);
      double* cr = c + i0 * ldc + j0;
      V::storeu(cr, V::add(V::loadu(cr), acc));
    }
    j0 += W;
  }
  // Last columns (< W wide): sequential fused chains, one column at a time
  // with four rows' accumulators in registers, so independent chains
  // overlap instead of each k-step waiting on the last (a narrow multi-RHS
  // solve spends most of its GEMM time here).
  for (; j0 < n; ++j0) {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const double* a0 = a + i * lda;
      const double* a1 = a0 + lda;
      const double* a2 = a1 + lda;
      const double* a3 = a2 + lda;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      const double* bk = b + j0;
      for (std::size_t k = 0; k < kk; ++k, bk += ldb) {
        const double bj = *bk;
        s0 = std::fma(a0[k], bj, s0);
        s1 = std::fma(a1[k], bj, s1);
        s2 = std::fma(a2[k], bj, s2);
        s3 = std::fma(a3[k], bj, s3);
      }
      double* ci = c + i * ldc + j0;
      ci[0] += s0;
      ci[ldc] += s1;
      ci[2 * ldc] += s2;
      ci[3 * ldc] += s3;
    }
    for (; i < m; ++i) {
      const double* ai = a + i * lda;
      double s = 0.0;
      const double* bk = b + j0;
      for (std::size_t k = 0; k < kk; ++k, bk += ldb) s = std::fma(ai[k], *bk, s);
      c[i * ldc + j0] += s;
    }
  }
}

template <class V>
inline void vchol_trailing_update(std::size_t ntrail, std::size_t kb, double* base,
                                  std::size_t ld) {
  if (ntrail == 0) return;
  // Negate-and-transpose L21 into a dense kb x ntrail panel, then the
  // trailing update is C += L21 * (-L21^T) — a plain register-tiled GEMM
  // with no horizontal reductions, which is where the scalar row-dot
  // formulation loses on short panel widths. Row blocks keep each GEMM
  // rectangle inside (or just above) the lower triangle; the spill-over
  // cells are strictly upper and contractually dead.
  std::vector<double> w(kb * ntrail);
  for (std::size_t t = 0; t < ntrail; ++t) {
    const double* pt = base + t * ld;
    for (std::size_t a = 0; a < kb; ++a) w[a * ntrail + t] = -pt[a];
  }
  double* c = base + kb;
  constexpr std::size_t kRb = 64;
  for (std::size_t r0 = 0; r0 < ntrail; r0 += kRb) {
    const std::size_t nb = std::min(kRb, ntrail - r0);
    vgemm_acc<V>(nb, r0 + nb, kb, base + r0 * ld, ld, w.data(), ntrail, c + r0 * ld, ld);
  }
}

template <class V>
inline void vtrsv_lower(std::size_t n, const double* l, std::size_t ldl, double* x) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * ldl;
    x[i] = (x[i] - vdot<V>(li, x, i)) / li[i];
  }
}

/// Back substitution in axpy form: once x[k] is final, its contribution is
/// removed from every earlier unknown along row k of L — a contiguous read,
/// where the dot form would walk column k with stride ldl.
template <class V>
inline void vtrsv_lower_t(std::size_t n, const double* l, std::size_t ldl, double* x) {
  constexpr std::size_t W = V::W;
  for (std::size_t k = n; k-- > 0;) {
    const double* lk = l + k * ldl;
    const double xk = x[k] / lk[k];
    x[k] = xk;
    const typename V::vec fv = V::set1(xk);
    std::size_t i = 0;
    for (; i + W <= k; i += W) V::storeu(x + i, V::fnmadd(fv, V::loadu(lk + i), V::loadu(x + i)));
    for (; i < k; ++i) x[i] = std::fma(-xk, lk[i], x[i]);
  }
}

/// Build the full table for one ISA from the double trait VD.
template <class VD>
inline Kernels make_table(util::SimdIsa isa) {
  Kernels k;
  k.isa = isa;
  k.gemm_acc = &vgemm_acc<VD>;
  k.syrk_sub_upper = &vsyrk_sub_upper<VD>;
  k.axpy = &vaxpy<VD>;
  k.sub_scaled2 = &vsub_scaled2<VD>;
  k.rot = &vrot<VD>;
  k.dot = &vdot<VD>;
  k.dot_sub = &vdot_sub<VD>;
  k.chol_trailing_update = &vchol_trailing_update<VD>;
  k.chol_factor_panel = &vchol_factor_panel<VD>;
  k.trsv_lower = &vtrsv_lower<VD>;
  k.trsv_lower_t = &vtrsv_lower_t<VD>;
  return k;
}

}  // namespace soslock::linalg::simd_detail
