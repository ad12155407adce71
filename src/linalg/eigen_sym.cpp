#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "linalg/kernels.hpp"

namespace soslock::linalg {
namespace {

/// sqrt(f^2 + g^2), the radius of a QL Givens rotation. The plain form is
/// within an ulp or two of std::hypot while the sum lies inside
/// [2^-1000, 2^1000]: no square overflowed, and one that fell below the
/// normal range is too small against the sum to matter. Outside that range
/// (or on a NaN) the overflow- and underflow-safe std::hypot answers. The
/// rotation chain is latency-bound, and std::hypot's scaling costs about as
/// much as the rest of a rotation.
inline double rotation_radius(double f, double g) {
  const double ss = f * f + g * g;
  if (ss >= 0x1p-1000 && ss <= 0x1p+1000) return std::sqrt(ss);
  return std::hypot(f, g);
}

/// Top-down Householder reduction of the symmetric n x n matrix held in `w`
/// (both triangles) to tridiagonal form T = Q^T A Q, on whole rows: step k
/// reflects the tail of row k (= column k below the diagonal) and applies
/// the dsytd2-style rank-2 update A22 -= u q^T + q u^T, one row dot and one
/// sub_scaled2 per trailing row. Each column is scaled by the sum of its
/// magnitudes first (tred2's scaling), so no norm overflows. On return d is
/// T's diagonal and e its superdiagonal (e[n-1] = 0); for k < n-2, row k of
/// `w` holds the reflector u_k in columns k+1..n-1 and tau[k] its scale,
/// H_k = I - u_k u_k^T / tau[k] (tau[k] = 0: H_k = I), with
/// Q = H_0 H_1 ... H_{n-3}. The rest of `w` is scratch.
void tridiagonalize(Matrix& w, Vector& d, Vector& e, Vector& tau) {
  const Kernels& kern = active_kernels();
  const std::size_t n = w.rows();
  for (std::size_t k = 0; k + 2 < n; ++k) {
    const std::size_t m = n - k - 1;
    double* u = w.row_ptr(k) + k + 1;
    d[k] = w(k, k);
    double scale = 0.0;
    for (std::size_t i = 0; i < m; ++i) scale += std::fabs(u[i]);
    if (scale == 0.0) {
      e[k] = 0.0;
      tau[k] = 0.0;
      continue;
    }
    for (std::size_t i = 0; i < m; ++i) u[i] /= scale;  // 1/scale may overflow
    double h = kern.dot(u, u, m);
    const double f = u[0];
    const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
    e[k] = scale * g;
    h -= f * g;
    u[0] = f - g;
    tau[k] = h;
    // p = A22 u / h, then q = p - (u^T p / 2h) u, both in e[k+1..n), which
    // the later steps overwrite.
    double* q = e.data() + k + 1;
    double* a22 = w.row_ptr(k + 1) + k + 1;
    for (std::size_t i = 0; i < m; ++i) q[i] = kern.dot(a22 + i * n, u, m) / h;
    const double hh = kern.dot(u, q, m) / (h + h);
    for (std::size_t i = 0; i < m; ++i) q[i] -= hh * u[i];
    for (std::size_t i = 0; i < m; ++i)
      kern.sub_scaled2(u[i], q, q[i], u, a22 + i * n, m);
  }
  if (n >= 2) {
    d[n - 2] = w(n - 2, n - 2);
    e[n - 2] = w(n - 2, n - 1);
  }
  if (n >= 1) {
    d[n - 1] = w(n - 1, n - 1);
    e[n - 1] = 0.0;
  }
}

/// Q^T = H_{n-3} ... H_1 H_0 from the reflectors tridiagonalize left in `w`,
/// built in `qt` from the identity by M <- H_k M for k ascending. Rows 1..n-1
/// of M are zero in column 0, so each step is two passes of axpys over
/// contiguous row tails of length n-1 (for n = 25, three AVX-512 registers
/// and no remainder): t = u_k^T M[k+1:, 1:], then M[k+1:, 1:] -= u_k t^T /
/// tau[k]. t lives in the last row of `w`, which the reduction has spent.
void accumulate_qt(Matrix& w, const Vector& tau, Matrix& qt) {
  const Kernels& kern = active_kernels();
  const std::size_t n = w.rows();
  qt.fill(0.0);
  for (std::size_t i = 0; i < n; ++i) qt(i, i) = 1.0;
  for (std::size_t k = 0; k + 2 < n; ++k) {
    if (tau[k] == 0.0) continue;
    const std::size_t m = n - k - 1;
    const double* u = w.row_ptr(k) + k + 1;
    double* t = w.row_ptr(n - 1);
    std::fill(t, t + n - 1, 0.0);
    for (std::size_t j = 0; j < m; ++j)
      kern.axpy(u[j], qt.row_ptr(k + 1 + j) + 1, t, n - 1);
    const double inv = -1.0 / tau[k];
    for (std::size_t j = 0; j < m; ++j)
      kern.axpy(inv * u[j], t, qt.row_ptr(k + 1 + j) + 1, n - 1);
  }
}

/// Implicit-shift QL on the tridiagonal (d, e), e[i] = T(i, i+1) and
/// e[n-1] = 0 (EISPACK tql2/tql1 lineage). Each rotation is applied to rows
/// i and i+1 of *qt when non-null, interleaved with the chain so the
/// row update fills the latency of the next radius. Returns false if any
/// eigenvalue fails to converge within 50 shifts (caller falls back to the
/// Jacobi reference).
bool ql_implicit_shift(Vector& d, Vector& e, Matrix* qt) {
  const int n = static_cast<int>(d.size());
  if (n <= 1) return true;
  const Kernels& kern = active_kernels();
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m;
    do {
      for (m = l; m < n - 1; ++m) {
        // Machine-epsilon-relative deflation test (NR's "e + dd == dd"): a
        // tolerance tighter than eps could never be met by an off-diagonal
        // resting at the rounding floor and would burn the full iteration
        // budget before falling back to Jacobi.
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) break;
      }
      if (m != l) {
        if (iter++ == 50) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = rotation_radius(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = rotation_radius(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // Deflation mid-sweep: the split is below i; undo the shift on
            // d[i+1] and restart the scan for this l.
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (qt != nullptr) {
            kern.rot(c, s, qt->row_ptr(static_cast<std::size_t>(i)),
                     qt->row_ptr(static_cast<std::size_t>(i) + 1),
                     static_cast<std::size_t>(n));
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

/// Eigenvalues of the symmetric `a` (n >= 2), unsorted, into work.values:
/// the reduction and QL without Q^T, in work's reduced, offdiag and tau.
/// tridiagonalize writes every entry of values, offdiag and tau before
/// reading it, so resized storage needs no reset. False when QL does not
/// converge.
bool eigen_values_in(const Matrix& a, EigenWork& work) {
  const std::size_t n = a.rows();
  work.reduced = a;  // copy-assignment keeps storage that is large enough
  work.values.resize(n);
  work.offdiag.resize(n);
  work.tau.resize(n);
  tridiagonalize(work.reduced, work.values, work.offdiag, work.tau);
  return ql_implicit_shift(work.values, work.offdiag, nullptr);
}

/// Sort eigenvalues ascending; column j of the result is the row of `rows`
/// that belongs to the j-th smallest.
EigenSym sorted_result(const Vector& d, const Matrix& rows) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&d](std::size_t i, std::size_t j) { return d[i] < d[j]; });
  EigenSym out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    const double* v = rows.row_ptr(order[j]);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = v[i];
  }
  return out;
}

}  // namespace

EigenSym eigen_sym_jacobi(const Matrix& a, double tol, int max_sweeps) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix d = a;
  Matrix vt = Matrix::identity(n);  // eigenvectors as rows

  auto off_norm = [&d, n]() {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) s += d(i, j) * d(i, j);
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(frobenius_norm(d), 1e-300);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_norm() <= tol * scale) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = d(p, p), aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply rotation J(p,q,theta) on both sides of D and accumulate in V.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p), dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k), dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vt(p, k), vkq = vt(q, k);
          vt(p, k) = c * vkp - s * vkq;
          vt(q, k) = s * vkp + c * vkq;
        }
      }
    }
  }

  Vector values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = d(i, i);
  return sorted_result(values, vt);
}

EigenWork::EigenWork(std::size_t n)
    : values(n), vectors_t(n, n), reduced(n, n), offdiag(n), tau(n) {}

void eigen_sym_rows(const Matrix& a, EigenWork& work) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  if (work.reduced.rows() != n || work.vectors_t.rows() != n || work.values.size() != n ||
      work.offdiag.size() != n || work.tau.size() != n)
    work = EigenWork(n);
  work.reduced = a;  // same shape: the copy keeps the storage
  tridiagonalize(work.reduced, work.values, work.offdiag, work.tau);
  accumulate_qt(work.reduced, work.tau, work.vectors_t);
  if (ql_implicit_shift(work.values, work.offdiag, &work.vectors_t)) return;
  const EigenSym jac = eigen_sym_jacobi(a);
  work.values = jac.values;
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i) work.vectors_t(k, i) = jac.vectors(i, k);
}

EigenSym eigen_sym(const Matrix& a) {
  assert(a.rows() == a.cols());
  if (a.rows() == 0) return {};
  EigenWork work(a.rows());
  eigen_sym_rows(a, work);
  return sorted_result(work.values, work.vectors_t);
}

Vector eigen_values_sym(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  if (n == 0) return {};
  if (n == 1) return {a(0, 0)};
  EigenWork work;
  if (!eigen_values_in(a, work)) return eigen_sym_jacobi(a).values;
  std::sort(work.values.begin(), work.values.end());
  return std::move(work.values);
}

double min_eigenvalue(const Matrix& a) {
  EigenWork work;
  return min_eigenvalue(a, work);
}

double min_eigenvalue(const Matrix& a, EigenWork& work) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  if (n == 0) return 0.0;
  if (n == 1) return a(0, 0);
  if (!eigen_values_in(a, work)) return eigen_sym_jacobi(a).values.front();
  return *std::min_element(work.values.begin(), work.values.end());
}

Matrix sqrt_psd(const Matrix& a) {
  const EigenSym es = eigen_sym(a);
  const std::size_t n = a.rows();
  Matrix sqrt_d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    sqrt_d(i, i) = es.values[i] > 0.0 ? std::sqrt(es.values[i]) : 0.0;
  return es.vectors * sqrt_d * es.vectors.transposed();
}

}  // namespace soslock::linalg
