#include "sdp/elimination.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace soslock::sdp {

using linalg::Cholesky;
using linalg::Matrix;
using linalg::Vector;

Matrix OverlapElimination::reduce(const Matrix& full, std::size_t m, std::size_t q,
                                  double corner_shift) {
  assert(full.rows() == m + q && full.cols() == m + q);
  m_ = m;
  q_ = q;
  Matrix qmat(q, q);
  for (std::size_t a = 0; a < q; ++a)
    for (std::size_t b = 0; b < q; ++b) qmat(a, b) = full(m + a, m + b);
  chol_q_ = Cholesky::factor_shifted(qmat, corner_shift);
  // U^T is the lower-left q x m block of the symmetric `full`: its rows are
  // the overlap rows' leading segments, so W = L_q^{-1} U^T is one multi-RHS
  // forward solve.
  Matrix ut(q, m);
  for (std::size_t a = 0; a < q; ++a)
    std::copy(full.row_ptr(m + a), full.row_ptr(m + a) + m, ut.row_ptr(a));
  w_ = chol_q_.solve_lower(std::move(ut));
  Matrix reduced(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t k = 0; k < m; ++k) reduced(i, k) = full(i, k);
  linalg::subtract_gram(reduced, w_);
  return reduced;
}

Vector OverlapElimination::fold_rhs(const Vector& rb, Vector& ra) const {
  assert(rb.size() == q_ && ra.size() == m_);
  const Vector t = chol_q_.solve_lower(rb);
  for (std::size_t o = 0; o < q_; ++o) {
    const double f = t[o];
    if (f == 0.0) continue;
    const double* wr = w_.row_ptr(o);
    for (std::size_t i = 0; i < m_; ++i) ra[i] -= f * wr[i];
  }
  return t;
}

Vector OverlapElimination::multipliers(const Vector& t, const Vector& y) const {
  assert(t.size() == q_ && y.size() >= m_);
  Vector u = t;
  for (std::size_t o = 0; o < q_; ++o) {
    const double* wr = w_.row_ptr(o);
    double acc = 0.0;
    for (std::size_t i = 0; i < m_; ++i) acc += wr[i] * y[i];
    u[o] -= acc;
  }
  return chol_q_.solve_lower_transposed(u);
}

}  // namespace soslock::sdp
