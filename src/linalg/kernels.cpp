#include "linalg/kernels.hpp"

#include <cmath>

#include "util/log.hpp"

namespace soslock::linalg {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the pre-dispatch loop nests moved
// behind the seam verbatim — same tiling, same accumulation order, no FMA —
// so the scalar table is bit-identical to the historical results and serves
// as the reference the parity suite checks every vector table against.
// ---------------------------------------------------------------------------

constexpr std::size_t kMr = 4;  // C tile rows
constexpr std::size_t kNr = 8;  // C tile cols

void s_gemm_acc(std::size_t m, std::size_t n, std::size_t kk, const double* a,
                std::size_t lda, const double* b, std::size_t ldb, double* c,
                std::size_t ldc) {
  std::size_t j0 = 0;
  for (; j0 + kNr <= n; j0 += kNr) {
    std::size_t i0 = 0;
    for (; i0 + kMr <= m; i0 += kMr) {
      double acc[kMr][kNr] = {};
      const double* a0 = a + i0 * lda;
      const double* a1 = a0 + lda;
      const double* a2 = a1 + lda;
      const double* a3 = a2 + lda;
      for (std::size_t k = 0; k < kk; ++k) {
        const double* bk = b + k * ldb + j0;
        const double f0 = a0[k], f1 = a1[k], f2 = a2[k], f3 = a3[k];
        for (std::size_t jj = 0; jj < kNr; ++jj) {
          const double bj = bk[jj];
          acc[0][jj] += f0 * bj;
          acc[1][jj] += f1 * bj;
          acc[2][jj] += f2 * bj;
          acc[3][jj] += f3 * bj;
        }
      }
      for (std::size_t r = 0; r < kMr; ++r) {
        double* cr = c + (i0 + r) * ldc + j0;
        for (std::size_t jj = 0; jj < kNr; ++jj) cr[jj] += acc[r][jj];
      }
    }
    for (; i0 < m; ++i0) {  // remainder rows, full-width tile
      double acc[kNr] = {};
      const double* ai = a + i0 * lda;
      for (std::size_t k = 0; k < kk; ++k) {
        const double* bk = b + k * ldb + j0;
        const double f = ai[k];
        for (std::size_t jj = 0; jj < kNr; ++jj) acc[jj] += f * bk[jj];
      }
      double* cr = c + i0 * ldc + j0;
      for (std::size_t jj = 0; jj < kNr; ++jj) cr[jj] += acc[jj];
    }
  }
  if (j0 < n) {  // remainder columns (< kNr wide)
    const std::size_t nr = n - j0;
    for (std::size_t i = 0; i < m; ++i) {
      double acc[kNr] = {};
      const double* ai = a + i * lda;
      for (std::size_t k = 0; k < kk; ++k) {
        const double* bk = b + k * ldb + j0;
        const double f = ai[k];
        for (std::size_t jj = 0; jj < nr; ++jj) acc[jj] += f * bk[jj];
      }
      double* cr = c + i * ldc + j0;
      for (std::size_t jj = 0; jj < nr; ++jj) cr[jj] += acc[jj];
    }
  }
}

void s_syrk_sub_upper(std::size_t n, std::size_t k, const double* w, std::size_t ldw,
                      double* c, std::size_t ldc) {
  // Rank-1 accumulation over the rows of W, upper triangle only; the
  // zero-skip matches the historical subtract_gram (sparse coefficient rows
  // are common in the Schur overlap panels).
  for (std::size_t a = 0; a < k; ++a) {
    const double* wr = w + a * ldw;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = wr[i];
      if (f == 0.0) continue;
      double* ci = c + i * ldc;
      for (std::size_t j = i; j < n; ++j) ci[j] -= f * wr[j];
    }
  }
}

void s_axpy(double f, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += f * x[i];
}

void s_sub_scaled2(double f, const double* a, double g, const double* b, double* y,
                   std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) y[k] -= f * a[k] + g * b[k];
}

void s_rot(double c, double s, double* x, double* y, std::size_t n) {
  // The historical column update of the QL eigenvector accumulation, now
  // along rows: same per-element arithmetic.
  for (std::size_t k = 0; k < n; ++k) {
    const double f = y[k];
    y[k] = s * x[k] + c * f;
    x[k] = c * x[k] - s * f;
  }
}

double s_dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double s_dot_sub(double s, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) s -= a[i] * b[i];
  return s;
}

void s_chol_trailing_update(std::size_t ntrail, std::size_t kb, double* base,
                            std::size_t ld, double* /*panel*/) {
  // One plain dot per lower-triangle element, subtracted once — the
  // historical trailing-syrk loop verbatim. Touches nothing above the
  // diagonal of the trailing block.
  for (std::size_t r = 0; r < ntrail; ++r) {
    const double* pr = base + r * ld;
    double* dr = base + r * ld + kb;
    for (std::size_t j = 0; j <= r; ++j) dr[j] -= s_dot(pr, base + j * ld, kb);
  }
}

bool s_chol_factor_panel(std::size_t kb, std::size_t nrows, double* block,
                         std::size_t ldb) {
  // Unblocked diagonal-block factor, then the row-by-row panel solve — the
  // historical loops verbatim (alternating dot_sub order, *inv in the block,
  // /pivot in the trailing rows).
  for (std::size_t j = 0; j < kb; ++j) {
    double* lj = block + j * ldb;
    const double d = s_dot_sub(lj[j], lj, lj, j);
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    lj[j] = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < kb; ++i) {
      double* li = block + i * ldb;
      li[j] = s_dot_sub(li[j], li, lj, j) * inv;
    }
  }
  for (std::size_t r = kb; r < kb + nrows; ++r) {
    double* ri = block + r * ldb;
    for (std::size_t j = 0; j < kb; ++j) {
      const double* lj = block + j * ldb;
      ri[j] = s_dot_sub(ri[j], ri, lj, j) / lj[j];
    }
  }
  return true;
}

void s_trsv_lower(std::size_t n, const double* l, std::size_t ldl, double* x) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * ldl;
    double s = x[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * x[k];
    x[i] = s / li[i];
  }
}

void s_trsv_lower_t(std::size_t n, const double* l, std::size_t ldl, double* x) {
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l[k * ldl + ii] * x[k];
    x[ii] = s / l[ii * ldl + ii];
  }
}

Kernels make_scalar() {
  Kernels k;
  k.isa = util::SimdIsa::Scalar;
  k.gemm_acc = &s_gemm_acc;
  k.syrk_sub_upper = &s_syrk_sub_upper;
  k.axpy = &s_axpy;
  k.sub_scaled2 = &s_sub_scaled2;
  k.rot = &s_rot;
  k.dot = &s_dot;
  k.dot_sub = &s_dot_sub;
  k.chol_trailing_update = &s_chol_trailing_update;
  k.chol_factor_panel = &s_chol_factor_panel;
  k.trsv_lower = &s_trsv_lower;
  k.trsv_lower_t = &s_trsv_lower_t;
  return k;
}

// ---------------------------------------------------------------------------
// Dispatch: strongest compiled-in + hardware-supported ISA, clamped by the
// SOSLOCK_SIMD override, resolved once on first use.
// ---------------------------------------------------------------------------

const Kernels* startup_table() {
  util::SimdIsa want;
  const bool overridden = util::simd_override(want);
  if (!overridden) want = util::detected_isa();
  for (int i = static_cast<int>(want); i > 0; --i) {
    if (const Kernels* t = kernels_for(static_cast<util::SimdIsa>(i))) {
      if (overridden && t->isa != want) {
        util::log_warn("SOSLOCK_SIMD=", util::isa_name(want),
                       " unavailable on this build/CPU; using ", util::isa_name(t->isa));
      }
      return t;
    }
  }
  if (overridden && want != util::SimdIsa::Scalar) {
    util::log_warn("SOSLOCK_SIMD=", util::isa_name(want),
                   " unavailable on this build/CPU; using scalar");
  }
  return &scalar_kernels();
}

const Kernels*& active_slot() {
  static const Kernels* slot = startup_table();
  return slot;
}

}  // namespace

const Kernels& scalar_kernels() {
  static const Kernels k = make_scalar();
  return k;
}

const Kernels* kernels_for(util::SimdIsa isa) {
  switch (isa) {
    case util::SimdIsa::Scalar:
      return &scalar_kernels();
    case util::SimdIsa::Neon: {
      const Kernels* t = kernels_neon();
      return (t != nullptr && util::cpu_supports(isa)) ? t : nullptr;
    }
    case util::SimdIsa::Avx2: {
      const Kernels* t = kernels_avx2();
      return (t != nullptr && util::cpu_supports(isa)) ? t : nullptr;
    }
    case util::SimdIsa::Avx512: {
      const Kernels* t = kernels_avx512();
      return (t != nullptr && util::cpu_supports(isa)) ? t : nullptr;
    }
  }
  return nullptr;
}

const Kernels& active_kernels() { return *active_slot(); }

util::SimdIsa active_isa() { return active_slot()->isa; }

util::SimdIsa set_active_isa(util::SimdIsa isa) {
  const util::SimdIsa prev = active_slot()->isa;
  if (const Kernels* t = kernels_for(isa)) active_slot() = t;
  return prev;
}

}  // namespace soslock::linalg
