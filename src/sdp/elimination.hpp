#pragma once
// Block elimination of the overlap-multiplier corner, shared by both
// backends' native decomposed-cone paths. For the symmetric PD system
//
//   [ M0  U ] [y]   [ra]        rows      [0, m)
//   [ U^T Q ] [λ] = [rb]        overlaps  [m, m+q)
//
// factor Q, form W = L_q^{-1} U^T (half triangular solve) and reduce
// M0 -> M0 - W^T W (syrk half, linalg::subtract_gram). The flop count
// telescopes to exactly the extended (m+q) factorization, the solve is
// algebraically the full system's, and the factor the caller builds holds
// only the m real rows. Solving is two-stage:
//
//   t  = L_q^{-1} rb;   solve the reduced system on  ra - W^T t;
//   λ  = L_q^{-T}(t - W y).
//
// Q is PD whenever the enclosing operator is (it is a congruence with the
// linearly independent overlap difference maps); corner_shift guards the
// factorization against end-of-path ill-conditioning exactly like the
// callers' own factor_shifted calls.
#include <cstddef>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace soslock::sdp {

class OverlapElimination {
 public:
  /// Factor the overlap corner of `full` and write the reduced m x m
  /// leading block M0 - W^T W to `reduced`, ready for the caller's
  /// factorization. The corner's shift ladder is relative to `corner_scale`
  /// (0: Q's own largest diagonal; see Cholesky::refactor_shifted). Q's copy
  /// goes to `corner`; `reduced`, `corner`, this object's factor and W keep
  /// their storage while the shapes stay put, and `acc` is the multi-RHS
  /// solve's scratch (Cholesky::solve_lower_in_place).
  void reduce(const linalg::Matrix& full, std::size_t m, std::size_t q,
              double corner_shift, double corner_scale, linalg::Matrix& reduced,
              linalg::Matrix& corner, linalg::Vector& acc);

  /// First stage, in place on spans: rb (q entries) becomes
  /// t = L_q^{-1} rb, and ra (m entries) -= W^T t, the reduced system's
  /// right-hand side.
  void fold_rhs(double* rb, double* ra) const;
  /// Back-substitution in place: t (q entries) becomes
  /// λ = L_q^{-T}(t - W y), for y (m entries).
  void multipliers(double* t, const double* y) const;

 private:
  void subtract_wt(const double* t, double* ra) const;  // ra -= W^T t
  void subtract_wy(double* t, const double* y) const;   // t -= W y

  std::size_t m_ = 0, q_ = 0;
  linalg::Cholesky chol_q_;
  linalg::Matrix w_;  // W = L_q^{-1} U^T (q x m)
};

}  // namespace soslock::sdp
