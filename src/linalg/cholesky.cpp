#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/kernels.hpp"
#include "util/log.hpp"

namespace soslock::linalg {
namespace {

/// Panel width of the blocked factorization. Each round factors a kB x kB
/// diagonal block, solves the panel below it, and applies one syrk-style
/// rank-kB update to the trailing matrix — the update runs on contiguous
/// row segments, so the working set per round stays cache-resident instead
/// of streaming the whole matrix per column as the unblocked loop does.
constexpr std::size_t kPanel = 48;

/// Row-panel height of the multi-RHS triangular solves. A system of at most
/// this many rows (every PSD block of the SOS programs) is pure in-panel
/// substitution and allocates no GEMM scratch.
constexpr std::size_t kSolvePanel = 32;

/// Factor `a` (plus `shift` on the diagonal) into `l`; returns false when a
/// non-positive pivot appears. The strictly-upper part is zeroed on success.
/// `panel` as in factor_in_place.
bool try_factor(const Matrix& a, double shift, Matrix& l, Vector* panel) {
  const std::size_t n = a.rows();
  l = a;
  if (shift != 0.0) {
    for (std::size_t i = 0; i < n; ++i) l(i, i) += shift;
  }
  if (!factor_in_place(l, panel)) return false;
  for (std::size_t r = 0; r < n; ++r) {
    double* lr = l.row_ptr(r);
    for (std::size_t c = r + 1; c < n; ++c) lr[c] = 0.0;
  }
  return true;
}

double diag_scale(const Matrix& a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) m = std::max(m, std::fabs(a(i, i)));
  return m > 0.0 ? m : 1.0;
}

}  // namespace

bool factor_in_place(Matrix& a, Vector* panel) {
  // Blocked right-looking factorization: the factor is built in the lower
  // triangle of `a` itself.
  const std::size_t n = a.rows();
  const Kernels& kern = active_kernels();
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t kb = std::min(kPanel, n - k0);
    const std::size_t t0 = k0 + kb;  // first trailing row
    // 1+2. Factor the kb x kb diagonal block and solve the panel below it
    //    (L21 = A21 * L11^{-T}) in one kernel call — columns < k0 were
    //    already folded in by the trailing updates of previous rounds, so
    //    the whole column panel is self-contained from column k0 on.
    if (!kern.chol_factor_panel(kb, n - t0, a.row_ptr(k0) + k0, a.cols())) return false;
    // 3. Trailing syrk update A22 -= L21 * L21^T, lower triangle only.
    //    Vector tables may scribble on the dead strictly-upper cells of the
    //    trailing block.
    double* scratch = nullptr;
    if (panel != nullptr && n > t0) {
      if (panel->size() < kb * (n - t0)) panel->resize(kb * (n - t0));
      scratch = panel->data();
    }
    kern.chol_trailing_update(n - t0, kb, a.row_ptr(t0) + k0, a.cols(), scratch);
  }
  return true;
}

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  assert(a.rows() == a.cols());
  Cholesky c;
  if (!try_factor(a, 0.0, c.l_, nullptr)) return std::nullopt;
  return c;
}

Cholesky Cholesky::factor_shifted(const Matrix& a, double initial_rel_shift) {
  Cholesky c;
  c.refactor_shifted(a, initial_rel_shift);
  return c;
}

void Cholesky::refactor_shifted(const Matrix& a, double initial_rel_shift, double scale,
                                Vector* panel) {
  assert(a.rows() == a.cols());
  if (scale == 0.0) scale = diag_scale(a);
  double rel = initial_rel_shift;
  while (rel < 1e6) {
    if (try_factor(a, rel * scale, l_, panel)) {
      shift_ = rel * scale;
      if (rel != initial_rel_shift) util::log_trace("Cholesky: applied diagonal shift ", shift_);
      return;
    }
    rel = rel > 0.0 ? rel * 10.0 : 1e-14;
  }
  // Degenerate input (e.g. all-NaN): fall back to identity to avoid UB; the
  // caller's residual checks will expose the failure.
  util::log_warn("Cholesky: factorization failed even with large shift");
  l_ = Matrix::identity(a.rows());
  shift_ = rel * scale;
}

Vector Cholesky::solve_lower(const Vector& b) const {
  assert(b.size() == l_.rows());
  Vector y = b;
  solve_lower_in_place(y.data());
  return y;
}

Vector Cholesky::solve_lower_transposed(const Vector& y) const {
  assert(y.size() == l_.rows());
  Vector x = y;
  solve_lower_transposed_in_place(x.data());
  return x;
}

void Cholesky::solve_lower_in_place(double* x) const {
  active_kernels().trsv_lower(l_.rows(), l_.data(), l_.cols(), x);
}

void Cholesky::solve_lower_transposed_in_place(double* x) const {
  active_kernels().trsv_lower_t(l_.rows(), l_.data(), l_.cols(), x);
}

Vector Cholesky::solve(const Vector& b) const { return solve_lower_transposed(solve_lower(b)); }

std::size_t Cholesky::solve_scratch_size(std::size_t rows, std::size_t cols) {
  return rows > kSolvePanel ? kSolvePanel * cols : 0;
}

Matrix Cholesky::solve_lower(Matrix x) const {
  Vector acc;
  solve_lower_in_place(x, acc);
  return x;
}

void Cholesky::solve_lower_in_place(Matrix& x, Vector& acc) const {
  const std::size_t n = l_.rows(), nc = x.cols();
  assert(x.rows() == n);
  const Kernels& kern = active_kernels();
  // Left-looking over row panels: the rows above a panel are final, so their
  // whole contribution L[r0:r1, 0:r0) X[0:r0) arrives in one GEMM; the rows
  // inside it are substituted by axpy, each a contiguous row of X.
  acc.resize(solve_scratch_size(n, nc));
  for (std::size_t r0 = 0; r0 < n; r0 += kSolvePanel) {
    const std::size_t r1 = std::min(n, r0 + kSolvePanel);
    if (r0 > 0) {
      std::fill(acc.begin(), acc.end(), 0.0);
      kern.gemm_acc(r1 - r0, nc, r0, l_.row_ptr(r0), n, x.data(), nc, acc.data(), nc);
      for (std::size_t i = r0; i < r1; ++i) {
        double* xi = x.row_ptr(i);
        const double* ai = acc.data() + (i - r0) * nc;
        for (std::size_t c = 0; c < nc; ++c) xi[c] -= ai[c];
      }
    }
    for (std::size_t i = r0; i < r1; ++i) {
      const double* li = l_.row_ptr(i);
      double* xi = x.row_ptr(i);
      for (std::size_t k = r0; k < i; ++k) kern.axpy(-li[k], x.row_ptr(k), xi, nc);
      for (std::size_t c = 0; c < nc; ++c) xi[c] /= li[i];
    }
  }
}

Matrix Cholesky::solve(Matrix b) const {
  const std::size_t n = l_.rows(), nc = b.cols();
  const Kernels& kern = active_kernels();
  Matrix x = solve_lower(std::move(b));
  // Back substitution L^T X = Y, bottom panel first, right-looking: a row is
  // final once divided by its pivot and leaves the panel rows above it along
  // its own row of L (axpy form); the finished panel then reaches every row
  // above the panel through one GEMM with its negated transpose.
  std::vector<double> lt;
  for (std::size_t p = (n + kSolvePanel - 1) / kSolvePanel; p-- > 0;) {
    const std::size_t r0 = p * kSolvePanel, r1 = std::min(n, r0 + kSolvePanel);
    for (std::size_t k = r1; k-- > r0;) {
      const double* lk = l_.row_ptr(k);
      double* xk = x.row_ptr(k);
      for (std::size_t c = 0; c < nc; ++c) xk[c] /= lk[k];
      for (std::size_t i = r0; i < k; ++i) kern.axpy(-lk[i], xk, x.row_ptr(i), nc);
    }
    if (r0 == 0) break;
    // lt = -L[r0:r1, 0:r0)^T, written row by row: contiguous stores, and the
    // kb source rows are each read sequentially.
    const std::size_t kb = r1 - r0;
    lt.resize(r0 * kb);
    const double* lp = l_.row_ptr(r0);
    for (std::size_t i = 0; i < r0; ++i) {
      double* ti = lt.data() + i * kb;
      for (std::size_t a = 0; a < kb; ++a) ti[a] = -lp[a * n + i];
    }
    kern.gemm_acc(r0, nc, kb, lt.data(), kb, x.row_ptr(r0), nc, x.data(), nc);
  }
  return x;
}

void Cholesky::inverse(Matrix& x) const {
  // A^{-1} = L^{-T} L^{-1}. First J = L^{-1} by forward substitution per
  // column (the identity right-hand side is sparse: column j starts at row
  // j, so the forward pass is triangular in cost); then X = L^{-T} J by back
  // substitution. Work runs on whole rows of the output, not per-column
  // vector copies. The back substitution reads J's strict upper triangle,
  // so x starts at zero.
  const std::size_t n = l_.rows();
  if (x.rows() != n || x.cols() != n) {
    x = Matrix(n, n);
  } else {
    x.fill(0.0);
  }
  // Forward: J(i, j) for i >= j, built column-major logically but stored
  // row-major; iterate rows outer so writes stay contiguous.
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l_.row_ptr(i);
    double* xi = x.row_ptr(i);
    const double inv = 1.0 / li[i];
    for (std::size_t j = 0; j <= i; ++j) {
      double s = (i == j) ? 1.0 : 0.0;
      for (std::size_t k = j; k < i; ++k) s -= li[k] * x(k, j);
      xi[j] = s * inv;
    }
  }
  // Backward: X <- L^{-T} X, rows from the bottom; row i of the result needs
  // rows > i of the intermediate, so in-place back substitution is safe.
  for (std::size_t ii = n; ii-- > 0;) {
    double* xi = x.row_ptr(ii);
    const double inv = 1.0 / l_(ii, ii);
    for (std::size_t j = 0; j < n; ++j) {
      double s = xi[j];
      for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x(k, j);
      xi[j] = s * inv;
    }
  }
  // Clean up roundoff asymmetry so downstream symmetric kernels see an
  // exactly symmetric inverse.
  x.symmetrize();
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

}  // namespace soslock::linalg
