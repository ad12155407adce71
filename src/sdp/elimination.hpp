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
  /// Factor the overlap corner of `full` and return the reduced m x m
  /// leading block M0 - W^T W, ready for the caller's factorization. The
  /// corner's shift ladder is relative to `corner_scale` (0: Q's own
  /// largest diagonal; see Cholesky::refactor_shifted).
  linalg::Matrix reduce(const linalg::Matrix& full, std::size_t m, std::size_t q,
                        double corner_shift, double corner_scale = 0.0);
  /// The same reduction into per-solve storage, with the same bits: the
  /// reduced block goes to `reduced` and Q's copy to `corner`, and those,
  /// this object's factor and W keep their storage while the shapes stay
  /// put; `acc` is the multi-RHS solve's scratch (Cholesky::
  /// solve_lower_in_place). The IPM reduces every Schur block this way each
  /// iteration; the ADMM reduces once per solve through the form above,
  /// whose allocation sequence its peak RSS is tuned to (see fold_rhs).
  void reduce(const linalg::Matrix& full, std::size_t m, std::size_t q,
              double corner_shift, double corner_scale, linalg::Matrix& reduced,
              linalg::Matrix& corner, linalg::Vector& acc);

  /// First stage: t = L_q^{-1} rb, and ra -= W^T t (ra becomes the reduced
  /// system's right-hand side). Returns t for the back-substitution.
  /// (The ADMM's y-update uses the Vector forms: its allocation sequence
  /// sets clock_tree's peak RSS through glibc's dynamic mmap threshold, and
  /// the span forms raised it by 16%.)
  linalg::Vector fold_rhs(const linalg::Vector& rb, linalg::Vector& ra) const;
  /// In place on spans: rb (q entries) becomes t, ra (m entries) -= W^T t.
  void fold_rhs(double* rb, double* ra) const;

  /// Back-substitution: λ = L_q^{-T}(t - W y).
  linalg::Vector multipliers(const linalg::Vector& t, const linalg::Vector& y) const;
  /// In place on spans: t (q entries) becomes λ, for y (m entries).
  void multipliers(double* t, const double* y) const;

 private:
  void subtract_wt(const double* t, double* ra) const;  // ra -= W^T t
  void subtract_wy(double* t, const double* y) const;   // t -= W y

  std::size_t m_ = 0, q_ = 0;
  linalg::Cholesky chol_q_;
  linalg::Matrix w_;  // W = L_q^{-1} U^T (q x m)
};

}  // namespace soslock::sdp
