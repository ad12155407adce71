#include "sdp/elimination.hpp"

#include <algorithm>
#include <cassert>

namespace soslock::sdp {

using linalg::Matrix;
using linalg::Vector;

void OverlapElimination::reduce(const Matrix& full, std::size_t m, std::size_t q,
                                double corner_shift, double corner_scale, Matrix& reduced,
                                Matrix& corner, Vector& acc) {
  assert(full.rows() == m + q && full.cols() == m + q);
  m_ = m;
  q_ = q;
  if (corner.rows() != q || corner.cols() != q) corner = Matrix(q, q);
  for (std::size_t a = 0; a < q; ++a)
    for (std::size_t b = 0; b < q; ++b) corner(a, b) = full(m + a, m + b);
  chol_q_.refactor_shifted(corner, corner_shift, corner_scale);
  if (w_.rows() != q || w_.cols() != m) w_ = Matrix(q, m);
  for (std::size_t a = 0; a < q; ++a)
    std::copy(full.row_ptr(m + a), full.row_ptr(m + a) + m, w_.row_ptr(a));
  chol_q_.solve_lower_in_place(w_, acc);
  if (reduced.rows() != m || reduced.cols() != m) reduced = Matrix(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t k = 0; k < m; ++k) reduced(i, k) = full(i, k);
  linalg::subtract_gram(reduced, w_);
}

void OverlapElimination::subtract_wt(const double* t, double* ra) const {
  for (std::size_t o = 0; o < q_; ++o) {
    const double f = t[o];
    if (f == 0.0) continue;
    const double* wr = w_.row_ptr(o);
    for (std::size_t i = 0; i < m_; ++i) ra[i] -= f * wr[i];
  }
}

void OverlapElimination::subtract_wy(double* t, const double* y) const {
  for (std::size_t o = 0; o < q_; ++o) {
    const double* wr = w_.row_ptr(o);
    double acc = 0.0;
    for (std::size_t i = 0; i < m_; ++i) acc += wr[i] * y[i];
    t[o] -= acc;
  }
}

void OverlapElimination::fold_rhs(double* rb, double* ra) const {
  chol_q_.solve_lower_in_place(rb);
  subtract_wt(rb, ra);
}

void OverlapElimination::multipliers(double* t, const double* y) const {
  subtract_wy(t, y);
  chol_q_.solve_lower_transposed_in_place(t);
}

}  // namespace soslock::sdp
