// Unit and property tests for the dense linear algebra kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace soslock::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix random_spd(std::size_t n, util::Rng& rng, double shift = 0.5) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix s = transposed_times(a, a);
  for (std::size_t i = 0; i < n; ++i) s(i, i) += shift;
  return s;
}

TEST(Matrix, IdentityAndDiag) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_EQ(i3(0, 0), 1.0);
  EXPECT_EQ(i3(0, 1), 0.0);
  const Matrix d = Matrix::diag({2.0, 3.0});
  EXPECT_EQ(d(1, 1), 3.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Matrix, MultiplyKnown) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = Matrix::from_rows({{5.0, 6.0}, {7.0, 8.0}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, TransposeRoundTrip) {
  util::Rng rng(1);
  const Matrix a = random_matrix(4, 7, rng);
  const Matrix att = a.transposed().transposed();
  EXPECT_NEAR(norm_inf(a - att), 0.0, 0.0);
}

TEST(Matrix, TransposedTimesAgreesWithExplicit) {
  util::Rng rng(2);
  const Matrix a = random_matrix(5, 3, rng);
  const Matrix b = random_matrix(5, 4, rng);
  const Matrix direct = transposed_times(a, b);
  const Matrix explicit_ = a.transposed() * b;
  EXPECT_LT(norm_inf(direct - explicit_), 1e-14);
}

TEST(Matrix, TimesTransposedAgreesWithExplicit) {
  util::Rng rng(3);
  const Matrix a = random_matrix(4, 6, rng);
  const Matrix b = random_matrix(5, 6, rng);
  const Matrix direct = times_transposed(a, b);
  const Matrix explicit_ = a * b.transposed();
  EXPECT_LT(norm_inf(direct - explicit_), 1e-14);
}

TEST(Matrix, SubtractGramAgreesWithExplicit) {
  util::Rng rng(17);
  const Matrix w = random_matrix(4, 6, rng);
  Matrix c = random_spd(6, rng);
  Matrix expected = c;
  expected -= transposed_times(w, w);
  subtract_gram(c, w);
  EXPECT_LT(norm_inf(c - expected), 1e-13);
  // Result stays exactly symmetric (upper computed, lower mirrored).
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) EXPECT_EQ(c(i, j), c(j, i));

  // Empty W (no overlap couplings) is a no-op.
  Matrix unchanged = expected;
  unchanged.symmetrize();
  const Matrix before = unchanged;
  subtract_gram(unchanged, Matrix(0, 6));
  EXPECT_EQ(norm_inf(unchanged - before), 0.0);
}

TEST(Matrix, FrobeniusDotSymmetry) {
  util::Rng rng(4);
  const Matrix a = random_matrix(6, 6, rng);
  const Matrix b = random_matrix(6, 6, rng);
  EXPECT_NEAR(dot(a, b), dot(b, a), 1e-12);
}

TEST(Matrix, SymmetrizeProducesSymmetric) {
  util::Rng rng(5);
  Matrix a = random_matrix(5, 5, rng);
  a.symmetrize();
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c) EXPECT_DOUBLE_EQ(a(r, c), a(c, r));
}

TEST(Vector, Norms) {
  const Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
}

class CholeskyParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskyParam, ReconstructsAndSolves) {
  util::Rng rng(GetParam() * 13 + 1);
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  // L L^T == A
  const Matrix rec = times_transposed(chol->lower(), chol->lower());
  EXPECT_LT(norm_inf(rec - a), 1e-10 * std::max(1.0, norm_inf(a)));
  // Solve residual
  const Vector b = rng.uniform_vector(n, -1.0, 1.0);
  const Vector x = chol->solve(b);
  const Vector r = a * x;
  EXPECT_LT(max_abs_diff(r, b), 1e-9);
  // The in-place factorization leaves the same factor in the lower triangle.
  Matrix in_place = a;
  ASSERT_TRUE(factor_in_place(in_place));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) EXPECT_EQ(in_place(i, j), chol->lower()(i, j));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyParam, ::testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factor(a).has_value());
  EXPECT_FALSE(factor_in_place(a));
}

TEST(Cholesky, ShiftedFactorizationHandlesSingular) {
  Matrix a(3, 3);  // zero matrix: PSD but singular
  const Cholesky chol = Cholesky::factor_shifted(a);
  EXPECT_GT(chol.shift(), 0.0);
}

TEST(Cholesky, MatrixSolve) {
  util::Rng rng(11);
  const Matrix a = random_spd(6, rng);
  const Matrix b = random_matrix(6, 3, rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix x = chol->solve(b);
  EXPECT_LT(norm_inf(a * x - b), 1e-9);
}

TEST(Cholesky, MatrixSolveResidualAcrossPanels) {
  // Sizes on and around the 32-row panel of the multi-RHS solves, with one
  // and with many right-hand sides.
  for (std::size_t n : {1u, 5u, 31u, 32u, 33u, 96u, 450u}) {
    util::Rng rng(n * 5 + 3);
    const Matrix a = random_spd(n, rng, 2.0);
    const auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol.has_value()) << "n=" << n;
    for (std::size_t nc : {1u, 17u}) {
      const Matrix b = random_matrix(n, nc, rng);
      const Matrix x = chol->solve(b);
      EXPECT_LT(norm_inf(a * x - b), 1e-12 * static_cast<double>(n + 1) * norm_inf(a))
          << "n=" << n << " nc=" << nc;
    }
  }
}

TEST(Cholesky, RefactorShiftedBitwiseEqualsFactorShifted) {
  // One object refactored through a PD input, an indefinite one (the shift
  // ladder's retries), a smaller one (storage resize), an all-NaN one (the
  // identity fallback) and the PD one again must match a fresh
  // factor_shifted bit for bit every time.
  util::Rng rng(67);
  const std::size_t n = 80;
  const Matrix spd = random_spd(n, rng);
  Matrix indefinite = random_matrix(n, n, rng);
  indefinite.symmetrize();
  indefinite(3, 3) = -50.0;
  const Matrix small = random_spd(7, rng);
  const Matrix nan(4, 4, std::nan(""));
  Cholesky c = Cholesky::factor_shifted(Matrix::identity(n));
  const Matrix* inputs[] = {&spd, &indefinite, &small, &nan, &spd};
  for (const Matrix* a : inputs) {
    for (double rel : {0.0, 1e-13}) {
      c.refactor_shifted(*a, rel);
      const Cholesky ref = Cholesky::factor_shifted(*a, rel);
      EXPECT_EQ(c.shift(), ref.shift());
      ASSERT_EQ(c.lower().rows(), ref.lower().rows());
      ASSERT_EQ(c.lower().cols(), ref.lower().cols());
      for (std::size_t i = 0; i < a->rows() * a->cols(); ++i) {
        ASSERT_EQ(c.lower().data()[i], ref.lower().data()[i]) << "elem " << i;
      }
      if (a == &indefinite) {
        EXPECT_GT(c.shift(), 0.0);
      }
    }
  }
}

// A diagonal block factored with its enclosing system's scale gets the
// shift the whole system would: a zero 1x1 block at rel 1e-13 of scale 1e6
// pivots at 1e-7, not at the 1e-13 its own (zero -> 1) diagonal would give;
// and the block's own largest diagonal as `scale` is the default ladder.
TEST(Cholesky, RefactorShiftedScaleIsTheEnclosingSystems) {
  Cholesky c;
  c.refactor_shifted(Matrix(1, 1), 1e-13, 1e6);
  EXPECT_DOUBLE_EQ(c.shift(), 1e-7);
  EXPECT_DOUBLE_EQ(c.lower()(0, 0), std::sqrt(1e-7));
  c.refactor_shifted(Matrix(1, 1), 1e-13);
  EXPECT_DOUBLE_EQ(c.shift(), 1e-13);

  util::Rng rng(71);
  const Matrix spd = random_spd(40, rng);
  double diag_max = 0.0;
  for (std::size_t i = 0; i < spd.rows(); ++i) diag_max = std::max(diag_max, spd(i, i));
  c.refactor_shifted(spd, 1e-13, diag_max);
  const Cholesky ref = Cholesky::factor_shifted(spd, 1e-13);
  EXPECT_EQ(c.shift(), ref.shift());
  for (std::size_t i = 0; i < spd.rows() * spd.cols(); ++i)
    ASSERT_EQ(c.lower().data()[i], ref.lower().data()[i]) << "elem " << i;
}

TEST(Cholesky, LogDetMatchesKnown) {
  const Matrix a = Matrix::diag({2.0, 3.0, 4.0});
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_NEAR(chol->log_det(), std::log(24.0), 1e-12);
}

class EigenParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenParam, DecompositionProperties) {
  util::Rng rng(GetParam() * 5 + 11);
  const std::size_t n = GetParam();
  Matrix a = random_matrix(n, n, rng);
  a.symmetrize();
  const EigenSym es = eigen_sym(a);
  // Ascending order.
  for (std::size_t i = 1; i < n; ++i) EXPECT_LE(es.values[i - 1], es.values[i] + 1e-12);
  // Orthogonality of eigenvectors.
  const Matrix vtv = transposed_times(es.vectors, es.vectors);
  EXPECT_LT(norm_inf(vtv - Matrix::identity(n)), 1e-9);
  // Reconstruction A = V D V^T.
  const Matrix rec = es.vectors * Matrix::diag(es.values) * es.vectors.transposed();
  EXPECT_LT(norm_inf(rec - a), 1e-8 * std::max(1.0, norm_inf(a)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenParam,
                         ::testing::Values(1, 2, 3, 6, 12, 25, 30, 64));

TEST(EigenSym, KnownEigenvalues) {
  const Matrix a = Matrix::from_rows({{2.0, 1.0}, {1.0, 2.0}});
  const EigenSym es = eigen_sym(a);
  EXPECT_NEAR(es.values[0], 1.0, 1e-10);
  EXPECT_NEAR(es.values[1], 3.0, 1e-10);
}

TEST(EigenSym, MinEigenvalueOfIndefinite) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_NEAR(min_eigenvalue(a), -1.0, 1e-10);
}

TEST(EigenSym, SqrtPsdSquares) {
  util::Rng rng(37);
  const Matrix a = random_spd(6, rng);
  const Matrix r = sqrt_psd(a);
  EXPECT_LT(norm_inf(r * r - a), 1e-8);
}

// --- tridiagonal-QL vs Jacobi reference parity ------------------------------

/// Both solvers must agree on eigenvalues; eigenvectors may differ by sign
/// (or basis within degenerate clusters), so parity is checked on values and
/// on the decomposition properties, not vector-by-vector.
void expect_eigen_parity(const Matrix& a, double tol) {
  const std::size_t n = a.rows();
  const EigenSym ql = eigen_sym(a);
  const EigenSym jac = eigen_sym_jacobi(a);
  ASSERT_EQ(ql.values.size(), n);
  ASSERT_EQ(jac.values.size(), n);
  const double scale = std::max(1.0, norm_inf(a));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(ql.values[i], jac.values[i], tol * scale) << "eigenvalue " << i;
  // Values-only fast path agrees with the full decomposition.
  const Vector vals = eigen_values_sym(a);
  ASSERT_EQ(vals.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(vals[i], ql.values[i], tol * scale) << "values-only " << i;
  if (n == 0) return;
  const Matrix vtv = transposed_times(ql.vectors, ql.vectors);
  EXPECT_LT(norm_inf(vtv - Matrix::identity(n)), 1e-9);
  const Matrix rec = ql.vectors * Matrix::diag(ql.values) * ql.vectors.transposed();
  EXPECT_LT(norm_inf(rec - a), tol * scale);
}

TEST(EigenSym, QlVsJacobiRandom) {
  for (std::size_t n : {2u, 3u, 7u, 16u, 33u, 64u}) {
    util::Rng rng(n * 101 + 7);
    Matrix a = random_matrix(n, n, rng);
    a.symmetrize();
    expect_eigen_parity(a, 1e-8);
  }
}

TEST(EigenSym, QlVsJacobiRankDeficient) {
  // A = G G^T with G n x r, r < n: exactly n - r zero eigenvalues.
  util::Rng rng(41);
  const std::size_t n = 20, r = 5;
  const Matrix g = random_matrix(n, r, rng);
  const Matrix a = times_transposed(g, g);
  expect_eigen_parity(a, 1e-8);
  const Vector vals = eigen_values_sym(a);
  for (std::size_t i = 0; i < n - r; ++i) EXPECT_NEAR(vals[i], 0.0, 1e-8);
  EXPECT_GT(vals[n - r], 1e-6);
}

TEST(EigenSym, QlVsJacobiClusteredEigenvalues) {
  // Diagonal with tight clusters, rotated by a random orthogonal basis (the
  // eigenvectors of a random symmetric matrix, taken from the Jacobi
  // reference): stresses the deflation logic of the QL sweep.
  util::Rng rng(43);
  const std::size_t n = 12;
  Vector d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = (i < 4 ? 1.0 : i < 8 ? 1.0 + 1e-9 * static_cast<double>(i) : 5.0);
  Matrix basis_seed = random_matrix(n, n, rng);
  basis_seed.symmetrize();
  const Matrix q = eigen_sym_jacobi(basis_seed).vectors;
  Matrix a = q * Matrix::diag(d) * q.transposed();
  a.symmetrize();
  expect_eigen_parity(a, 1e-8);
}

TEST(EigenSym, ExtremeScalesStayFinite) {
  // Rotation radii outside [2^-1000, 2^1000] take the std::hypot path: at
  // 1e+-300 the plain sqrt(f^2 + g^2) overflows to inf or underflows to 0
  // and the QL chain returns non-finite or wrong eigenpairs.
  std::vector<Matrix> inputs;
  util::Rng rng(53);
  for (const double scale : {1e150, 1e-150, 1e300, 1e-300}) {
    for (const std::size_t n : {5u, 25u}) {
      Matrix a = random_matrix(n, n, rng);
      a.symmetrize();
      a.scale(scale);
      inputs.push_back(a);
    }
  }
  Matrix tiny_coupling = Matrix::diag({1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  tiny_coupling(2, 3) = tiny_coupling(3, 2) = 1e-300;
  inputs.push_back(tiny_coupling);
  for (const Matrix& a : inputs) {
    const std::size_t n = a.rows();
    const double anorm = norm_inf(a);
    const EigenSym es = eigen_sym(a);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(std::isfinite(es.values[k])) << "scale " << anorm << " value " << k;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(std::isfinite(es.vectors(i, k))) << "scale " << anorm;
    }
    const Matrix vtv = transposed_times(es.vectors, es.vectors);
    EXPECT_LT(norm_inf(vtv - Matrix::identity(n)), 1e-12) << "scale " << anorm;
    // V diag(values) V^T column by column, so no intermediate leaves the
    // normal range.
    Matrix rec(n, n);
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          rec(i, j) += es.values[k] * es.vectors(i, k) * es.vectors(j, k);
    EXPECT_LE(norm_inf(rec - a), 1e-12 * anorm) << "scale " << anorm;
    const Vector vals = eigen_values_sym(a);
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_NEAR(vals[k], es.values[k], 1e-12 * anorm) << "scale " << anorm;
  }
}

TEST(EigenSym, TinyAndEmptyMatrices) {
  expect_eigen_parity(Matrix(), 1e-12);
  Matrix one(1, 1);
  one(0, 0) = -3.5;
  expect_eigen_parity(one, 1e-12);
  EXPECT_DOUBLE_EQ(eigen_sym(one).values[0], -3.5);
  EXPECT_DOUBLE_EQ(min_eigenvalue(one), -3.5);
  EXPECT_TRUE(eigen_sym(Matrix()).values.empty());
}

// --- blocked Cholesky vs unblocked reference --------------------------------

/// Textbook unblocked lower Cholesky, the pre-overhaul reference.
bool reference_cholesky(const Matrix& a, double shift, Matrix& l) {
  const std::size_t n = a.rows();
  l = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j) + shift;
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return true;
}

TEST(Cholesky, BlockedMatchesUnblockedAcrossSizes) {
  // Sizes straddling the panel width (48), including non-multiples.
  for (std::size_t n : {1u, 2u, 17u, 47u, 48u, 49u, 96u, 117u}) {
    util::Rng rng(n * 3 + 5);
    const Matrix a = random_spd(n, rng);
    const auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol.has_value()) << "n=" << n;
    Matrix ref;
    ASSERT_TRUE(reference_cholesky(a, 0.0, ref));
    EXPECT_LT(norm_inf(chol->lower() - ref), 1e-9 * std::max(1.0, norm_inf(a)))
        << "n=" << n;
  }
}

TEST(Cholesky, BlockedShiftedIndefinitePath) {
  // Indefinite matrix larger than one panel: the unshifted attempt must fail
  // and the adaptive shift must land a factorization of A + shift I.
  util::Rng rng(53);
  const std::size_t n = 80;
  Matrix a = random_matrix(n, n, rng);
  a.symmetrize();
  a(3, 3) = -50.0;  // guarantee indefiniteness
  EXPECT_FALSE(Cholesky::factor(a).has_value());
  const Cholesky chol = Cholesky::factor_shifted(a);
  EXPECT_GT(chol.shift(), 0.0);
  Matrix shifted = a;
  for (std::size_t i = 0; i < n; ++i) shifted(i, i) += chol.shift();
  const Matrix rec = times_transposed(chol.lower(), chol.lower());
  EXPECT_LT(norm_inf(rec - shifted), 1e-7 * std::max(1.0, norm_inf(shifted)));
}

TEST(Cholesky, ExplicitInverse) {
  util::Rng rng(59);
  // One output matrix for every size and twice per size: a reused matrix
  // (reshaped, or holding the previous inverse) must give the same bits as a
  // fresh one.
  Matrix reused;
  for (std::size_t n : {1u, 6u, 60u}) {
    const Matrix a = random_spd(n, rng);
    const auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol.has_value());
    Matrix inv;
    chol->inverse(inv);
    EXPECT_LT(norm_inf(a * inv - Matrix::identity(n)), 1e-7);
    // Symmetrized output.
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) EXPECT_DOUBLE_EQ(inv(r, c), inv(c, r));
    for (int round = 0; round < 2; ++round) {
      chol->inverse(reused);
      ASSERT_EQ(reused.rows(), n);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) EXPECT_EQ(reused(r, c), inv(r, c));
    }
  }
}

// --- GEMM micro-kernel vs naive triple loop ---------------------------------

Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

TEST(Matrix, GemmKernelMatchesNaiveOnOddShapes) {
  // Shapes chosen to miss the 4x8 register tile in every way: single
  // rows/cols, sub-tile sizes, tile size plus remainders.
  const std::size_t shapes[][3] = {{1, 1, 1},  {1, 9, 3},  {3, 2, 11}, {4, 8, 8},
                                   {5, 9, 7},  {7, 13, 5}, {8, 16, 4}, {13, 11, 17},
                                   {33, 7, 29}, {40, 64, 24}};
  int seed = 61;
  for (const auto& s : shapes) {
    util::Rng rng(seed++);
    const Matrix a = random_matrix(s[0], s[1], rng);
    const Matrix b = random_matrix(s[1], s[2], rng);
    const Matrix fast = a * b;
    const Matrix ref = naive_multiply(a, b);
    EXPECT_LT(norm_inf(fast - ref), 1e-12)
        << s[0] << "x" << s[1] << " * " << s[1] << "x" << s[2];
    // Transposed variants ride on the same kernel.
    EXPECT_LT(norm_inf(transposed_times(a.transposed(), b) - ref), 1e-12);
    EXPECT_LT(norm_inf(times_transposed(a, b.transposed()) - ref), 1e-12);
  }
}

TEST(Matrix, GemmKernelEmptyOperands) {
  const Matrix a(0, 0), b(0, 0);
  EXPECT_TRUE((a * b).empty());
  const Matrix c(3, 0), d(0, 4);
  const Matrix cd = c * d;
  EXPECT_EQ(cd.rows(), 3u);
  EXPECT_EQ(cd.cols(), 4u);
  EXPECT_NEAR(norm_inf(cd), 0.0, 0.0);
}

// --- ISA kernel parity suite ------------------------------------------------
//
// Every vector table the build compiled in (and this machine can run) is
// checked against the scalar reference. The elementwise kernels keep the
// scalar per-element accumulation order and differ only by FMA fusing, so
// they must match a fused sequential reference EXACTLY (and the scalar table
// must match the unfused reference exactly). The reduction kernels split
// sums across lanes, so they are held to ulp-scaled bounds instead.

std::vector<const Kernels*> vector_tables() {
  std::vector<const Kernels*> out;
  for (util::SimdIsa isa :
       {util::SimdIsa::Neon, util::SimdIsa::Avx2, util::SimdIsa::Avx512}) {
    if (const Kernels* t = kernels_for(isa)) out.push_back(t);
  }
  return out;
}

TEST(KernelParity, MatrixStorageIs64ByteAligned) {
  for (std::size_t n : {1u, 7u, 64u, 129u}) {
    const Matrix m(n, n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u) << "n=" << n;
  }
}

TEST(KernelParity, DispatchResolvesAndRoundTrips) {
  // The active table is one of the compiled-in tables and the scalar table
  // always resolves; forcing scalar and back is a no-op on availability.
  ASSERT_NE(kernels_for(util::SimdIsa::Scalar), nullptr);
  const util::SimdIsa startup = active_isa();
  const util::SimdIsa prev = set_active_isa(util::SimdIsa::Scalar);
  EXPECT_EQ(prev, startup);
  EXPECT_EQ(active_isa(), util::SimdIsa::Scalar);
  set_active_isa(startup);
  EXPECT_EQ(active_isa(), startup);
}

TEST(KernelParity, GemmExactAgainstOrderedReference) {
  const std::size_t shapes[][3] = {{4, 8, 8},   {4, 16, 16}, {8, 16, 8},  {1, 1, 1},
                                   {5, 9, 7},   {13, 11, 17}, {33, 7, 29}, {40, 64, 24},
                                   {17, 31, 19}};
  int seed = 71;
  for (const auto& s : shapes) {
    util::Rng rng(seed++);
    const std::size_t m = s[0], kk = s[1], n = s[2];
    const Matrix a = random_matrix(m, kk, rng);
    const Matrix b = random_matrix(kk, n, rng);
    // Unfused (scalar) and fused (vector) per-element references: identical
    // k-order, only the multiply-add contraction differs.
    Matrix ref_plain(m, n), ref_fma(m, n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0, accf = 0.0;
        for (std::size_t k = 0; k < kk; ++k) {
          acc += a(i, k) * b(k, j);
          accf = std::fma(a(i, k), b(k, j), accf);
        }
        ref_plain(i, j) = acc;
        ref_fma(i, j) = accf;
      }
    }
    Matrix c(m, n);
    scalar_kernels().gemm_acc(m, n, kk, a.data(), kk, b.data(), n, c.data(), n);
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c.data()[i], ref_plain.data()[i]) << "scalar gemm, elem " << i;
    for (const Kernels* t : vector_tables()) {
      Matrix cv(m, n);
      t->gemm_acc(m, n, kk, a.data(), kk, b.data(), n, cv.data(), n);
      for (std::size_t i = 0; i < m * n; ++i)
        ASSERT_EQ(cv.data()[i], ref_fma.data()[i])
            << util::isa_name(t->isa) << " gemm, elem " << i;
    }
  }
}

TEST(KernelParity, SyrkExactAgainstOrderedReference) {
  int seed = 83;
  for (std::size_t n : {1u, 4u, 8u, 9u, 16u, 23u, 48u}) {
    util::Rng rng(seed++);
    const std::size_t k = n / 2 + 1;
    Matrix w = random_matrix(k, n, rng);
    w(0, n / 2) = 0.0;  // exercise the zero-skip
    const Matrix c0 = random_spd(n, rng);
    Matrix ref_plain = c0, ref_fma = c0;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t i = 0; i < n; ++i) {
        const double f = w(a, i);
        if (f == 0.0) continue;
        for (std::size_t j = i; j < n; ++j) {
          ref_plain(i, j) -= f * w(a, j);
          ref_fma(i, j) = std::fma(-f, w(a, j), ref_fma(i, j));
        }
      }
    }
    Matrix c = c0;
    scalar_kernels().syrk_sub_upper(n, k, w.data(), n, c.data(), n);
    for (std::size_t i = 0; i < n * n; ++i)
      ASSERT_EQ(c.data()[i], ref_plain.data()[i]) << "scalar syrk, elem " << i;
    for (const Kernels* t : vector_tables()) {
      Matrix cv = c0;
      t->syrk_sub_upper(n, k, w.data(), n, cv.data(), n);
      for (std::size_t i = 0; i < n * n; ++i)
        ASSERT_EQ(cv.data()[i], ref_fma.data()[i])
            << util::isa_name(t->isa) << " syrk, elem " << i;
    }
  }
}

TEST(KernelParity, ElementwiseKernelsExact) {
  util::Rng rng(97);
  for (std::size_t n : {1u, 2u, 4u, 7u, 8u, 15u, 16u, 63u, 200u}) {
    const Vector x = rng.uniform_vector(n, -2.0, 2.0);
    const Vector u = rng.uniform_vector(n, -2.0, 2.0);
    const Vector y0 = rng.uniform_vector(n, -2.0, 2.0);
    const double f = 0.77, g = -1.3;

    Vector ax_plain = y0, ax_fma = y0, s2_plain = y0, s2_fma = y0;
    for (std::size_t i = 0; i < n; ++i) {
      ax_plain[i] += f * x[i];
      ax_fma[i] = std::fma(f, x[i], ax_fma[i]);
      s2_plain[i] -= f * x[i] + g * u[i];
      s2_fma[i] = std::fma(-g, u[i], std::fma(-f, x[i], s2_fma[i]));
    }

    Vector y = y0;
    scalar_kernels().axpy(f, x.data(), y.data(), n);
    EXPECT_EQ(max_abs_diff(y, ax_plain), 0.0) << "scalar axpy n=" << n;
    y = y0;
    scalar_kernels().sub_scaled2(f, x.data(), g, u.data(), y.data(), n);
    EXPECT_EQ(max_abs_diff(y, s2_plain), 0.0) << "scalar sub_scaled2 n=" << n;

    for (const Kernels* t : vector_tables()) {
      y = y0;
      t->axpy(f, x.data(), y.data(), n);
      EXPECT_EQ(max_abs_diff(y, ax_fma), 0.0) << util::isa_name(t->isa) << " axpy n=" << n;
      y = y0;
      t->sub_scaled2(f, x.data(), g, u.data(), y.data(), n);
      EXPECT_EQ(max_abs_diff(y, s2_fma), 0.0)
          << util::isa_name(t->isa) << " sub_scaled2 n=" << n;
    }
  }

  // rot: scalar bit-exact against the historical QL update of two columns
  // of a row-major eigenvector matrix (here columns 0 and 1 of an n x 2
  // one); vector tables exact against the fused reference and within the
  // FMA bound of the historical one, over every tail length of both vector
  // widths.
  const double c = std::cos(0.7), s = std::sin(0.7);
  for (std::size_t n = 1; n <= 33; ++n) {
    const Vector x0 = rng.uniform_vector(n, -2.0, 2.0);
    const Vector y0 = rng.uniform_vector(n, -2.0, 2.0);
    Matrix z(n, 2);
    for (std::size_t k = 0; k < n; ++k) {
      z(k, 0) = x0[k];
      z(k, 1) = y0[k];
    }
    for (std::size_t k = 0; k < n; ++k) {
      const double t = z(k, 1);
      z(k, 1) = s * z(k, 0) + c * t;
      z(k, 0) = c * z(k, 0) - s * t;
    }
    Vector x = x0, y = y0;
    scalar_kernels().rot(c, s, x.data(), y.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(x[k], z(k, 0)) << "scalar rot n=" << n << " k=" << k;
      ASSERT_EQ(y[k], z(k, 1)) << "scalar rot n=" << n << " k=" << k;
    }
    for (const Kernels* t : vector_tables()) {
      x = x0;
      y = y0;
      t->rot(c, s, x.data(), y.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        // The fused reference of the contract...
        ASSERT_EQ(y[k], std::fma(s, x0[k], c * y0[k]))
            << util::isa_name(t->isa) << " rot n=" << n << " k=" << k;
        ASSERT_EQ(x[k], std::fma(-s, y0[k], c * x0[k]))
            << util::isa_name(t->isa) << " rot n=" << n << " k=" << k;
        // ...and the unfused one: one product per output is not rounded,
        // an ulp of it at most.
        const double bound = 4.0 * std::numeric_limits<double>::epsilon() *
                             (std::fabs(x0[k]) + std::fabs(y0[k]));
        EXPECT_LE(std::fabs(x[k] - z(k, 0)), bound)
            << util::isa_name(t->isa) << " rot n=" << n << " k=" << k;
        EXPECT_LE(std::fabs(y[k] - z(k, 1)), bound)
            << util::isa_name(t->isa) << " rot n=" << n << " k=" << k;
      }
    }
  }
}

TEST(KernelParity, ReductionKernelsUlpBounded) {
  util::Rng rng(101);
  for (std::size_t n : {1u, 3u, 8u, 16u, 17u, 48u, 63u, 257u}) {
    const Vector a = rng.uniform_vector(n, -1.0, 1.0);
    const Vector b = rng.uniform_vector(n, -1.0, 1.0);
    const double ds = scalar_kernels().dot(a.data(), b.data(), n);
    const double dss = scalar_kernels().dot_sub(3.25, a.data(), b.data(), n);
    const double tol = 1e-13 * static_cast<double>(n + 1);
    for (const Kernels* t : vector_tables()) {
      EXPECT_NEAR(t->dot(a.data(), b.data(), n), ds, tol)
          << util::isa_name(t->isa) << " dot n=" << n;
      EXPECT_NEAR(t->dot_sub(3.25, a.data(), b.data(), n), dss, tol)
          << util::isa_name(t->isa) << " dot_sub n=" << n;
    }
  }
}

TEST(KernelParity, CholTrailingUpdateLowerTriangleParity) {
  // Scalar must reproduce the per-element `dr[j] -= dot(...)` loop bit for
  // bit; vector tables are ulp-bounded on the LOWER triangle only — cells
  // above the diagonal of the trailing block are contractually dead and may
  // be scribbled on.
  for (std::size_t ntrail : {0u, 1u, 3u, 4u, 17u, 70u}) {
    for (std::size_t kb : {1u, 7u, 48u}) {
      util::Rng rng(ntrail * 131 + kb);
      const std::size_t ld = kb + ntrail + 5;  // non-trivial stride
      const Vector panel0 = rng.uniform_vector(ntrail * ld, -1.0, 1.0);
      Vector ref = panel0;
      for (std::size_t r = 0; r < ntrail; ++r) {
        const double* pr = ref.data() + r * ld;
        for (std::size_t j = 0; j <= r; ++j)
          ref[r * ld + kb + j] -= scalar_kernels().dot(pr, ref.data() + j * ld, kb);
      }
      Vector ps = panel0;
      scalar_kernels().chol_trailing_update(ntrail, kb, ps.data(), ld, nullptr);
      EXPECT_EQ(max_abs_diff(ps, ref), 0.0)
          << "scalar chol_trailing_update ntrail=" << ntrail << " kb=" << kb;
      const double tol = 1e-13 * static_cast<double>(kb + 1);
      Vector scratch(kb * ntrail);
      for (const Kernels* t : vector_tables()) {
        Vector pv = panel0;
        t->chol_trailing_update(ntrail, kb, pv.data(), ld, scratch.data());
        double worst = 0.0;
        for (std::size_t r = 0; r < ntrail; ++r)
          for (std::size_t j = 0; j <= r; ++j)
            worst = std::max(worst, std::fabs(pv[r * ld + kb + j] - ref[r * ld + kb + j]));
        EXPECT_LT(worst, tol)
            << util::isa_name(t->isa) << " chol_trailing_update ntrail=" << ntrail
            << " kb=" << kb;
      }
    }
  }
}

TEST(KernelParity, CholFactorPanelParity) {
  // Factor the leading kb x kb block of an SPD matrix and solve the rows
  // below it. Scalar must match the historical loop nest exactly; vector
  // tables are held to a scaled bound on every written cell.
  for (std::size_t kb : {1u, 4u, 5u, 48u}) {
    for (std::size_t nrows : {0u, 1u, 6u, 33u}) {
      const std::size_t n = kb + nrows;
      util::Rng rng(kb * 57 + nrows + 11);
      const Matrix a = random_spd(n, rng, 2.0);
      Matrix ref = a;
      for (std::size_t j = 0; j < kb; ++j) {
        double* lj = ref.row_ptr(j);
        const double d = scalar_kernels().dot_sub(lj[j], lj, lj, j);
        ASSERT_GT(d, 0.0);
        lj[j] = std::sqrt(d);
        const double inv = 1.0 / lj[j];
        for (std::size_t i = j + 1; i < kb; ++i) {
          double* li = ref.row_ptr(i);
          li[j] = scalar_kernels().dot_sub(li[j], li, lj, j) * inv;
        }
      }
      for (std::size_t r = kb; r < n; ++r) {
        double* ri = ref.row_ptr(r);
        for (std::size_t j = 0; j < kb; ++j) {
          const double* lj = ref.row_ptr(j);
          ri[j] = scalar_kernels().dot_sub(ri[j], ri, lj, j) / lj[j];
        }
      }
      Matrix ms = a;
      ASSERT_TRUE(scalar_kernels().chol_factor_panel(kb, nrows, ms.data(), n));
      for (std::size_t i = 0; i < n * n; ++i)
        ASSERT_EQ(ms.data()[i], ref.data()[i])
            << "scalar chol_factor_panel kb=" << kb << " nrows=" << nrows
            << " elem " << i;
      for (const Kernels* t : vector_tables()) {
        Matrix mv = a;
        ASSERT_TRUE(t->chol_factor_panel(kb, nrows, mv.data(), n));
        double worst = 0.0;
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t j = 0; j < std::min(r + 1, kb); ++j)
            worst = std::max(worst, std::fabs(mv(r, j) - ref(r, j)));
        EXPECT_LT(worst, 1e-11 * static_cast<double>(kb + 1))
            << util::isa_name(t->isa) << " chol_factor_panel kb=" << kb
            << " nrows=" << nrows;
      }
    }
  }
  // A non-positive pivot is rejected identically by every table.
  Matrix bad(3, 3);
  bad(0, 0) = 1.0;
  bad(1, 1) = -2.0;
  bad(2, 2) = 1.0;
  EXPECT_FALSE(scalar_kernels().chol_factor_panel(3, 0, bad.data(), 3));
  for (const Kernels* t : vector_tables()) {
    Matrix bv = bad;
    EXPECT_FALSE(t->chol_factor_panel(3, 0, bv.data(), 3)) << util::isa_name(t->isa);
  }
  // Triangular solves: scalar vs vector on a well-conditioned factor (the
  // vector back substitution runs in axpy form, the scalar one in dot form).
  for (std::size_t n : {1u, 5u, 33u, 96u, 450u}) {
    util::Rng rng2(n * 7 + 3);
    const Matrix a = random_spd(n, rng2, 2.0);
    const auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol.has_value());
    const Matrix& l = chol->lower();
    const Vector rhs = rng2.uniform_vector(n, -1.0, 1.0);
    Vector xs = rhs;
    scalar_kernels().trsv_lower(n, l.data(), n, xs.data());
    Vector xst = rhs;
    scalar_kernels().trsv_lower_t(n, l.data(), n, xst.data());
    for (const Kernels* t : vector_tables()) {
      Vector xv = rhs;
      t->trsv_lower(n, l.data(), n, xv.data());
      EXPECT_LT(max_abs_diff(xv, xs), 1e-10 * static_cast<double>(n + 1))
          << util::isa_name(t->isa) << " trsv_lower n=" << n;
      Vector xvt = rhs;
      t->trsv_lower_t(n, l.data(), n, xvt.data());
      EXPECT_LT(max_abs_diff(xvt, xst), 1e-10 * static_cast<double>(n + 1))
          << util::isa_name(t->isa) << " trsv_lower_t n=" << n;
    }
  }
}

TEST(KernelParity, MultiRhsForwardSolveMatchesPerColumnTrsv) {
  // Cholesky::solve_lower(Matrix) — GEMM panel updates plus in-panel axpy
  // rows — against per-column trsv_lower of the same table, on every
  // compiled table, at sizes on and around the 32-row panel edges.
  const util::SimdIsa startup = active_isa();
  std::vector<const Kernels*> tables = vector_tables();
  tables.insert(tables.begin(), &scalar_kernels());
  for (std::size_t n : {1u, 5u, 31u, 32u, 33u, 96u, 450u}) {
    util::Rng rng(n * 11 + 7);
    const Matrix a = random_spd(n, rng, 2.0);
    for (std::size_t nc : {1u, 17u}) {
      const Matrix b = random_matrix(n, nc, rng);
      for (const Kernels* t : tables) {
        set_active_isa(t->isa);
        const auto chol = Cholesky::factor(a);
        ASSERT_TRUE(chol.has_value());
        const Matrix& l = chol->lower();
        const Matrix x = chol->solve_lower(b);
        double worst = 0.0;
        Vector col(n);
        for (std::size_t j = 0; j < nc; ++j) {
          for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
          t->trsv_lower(n, l.data(), n, col.data());
          for (std::size_t i = 0; i < n; ++i)
            worst = std::max(worst, std::fabs(x(i, j) - col[i]));
        }
        EXPECT_LT(worst, 1e-10 * static_cast<double>(n + 1))
            << util::isa_name(t->isa) << " n=" << n << " nc=" << nc;
        // The in-place form with scratch left over from a wider solve: the
        // same bits as the allocating form.
        Matrix y = b;
        Vector acc(Cholesky::solve_scratch_size(n, 2 * nc) + 3, 7.0);
        chol->solve_lower_in_place(y, acc);
        EXPECT_EQ(acc.size(), Cholesky::solve_scratch_size(n, nc));
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < nc; ++j) ASSERT_EQ(y(i, j), x(i, j));
      }
    }
  }
  set_active_isa(startup);
}

TEST(KernelParity, WholeMatrixOpsAgreeAcrossIsas) {
  // End-to-end: the routed entry points (GEMM, Cholesky factor+solve, eigen)
  // agree between the forced-scalar table and the startup table. This is the
  // same check the SOSLOCK_SIMD=scalar CI job makes machine-wide.
  const util::SimdIsa startup = active_isa();
  util::Rng rng(107);
  const std::size_t n = 64;
  const Matrix a = random_spd(n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const Vector rhs = rng.uniform_vector(n, -1.0, 1.0);

  set_active_isa(util::SimdIsa::Scalar);
  const Matrix prod_s = a * b;
  const Cholesky chol_s = Cholesky::factor_shifted(a);
  const Vector x_s = chol_s.solve(rhs);
  const Vector ev_s = eigen_values_sym(a);

  set_active_isa(startup);
  const Matrix prod_v = a * b;
  const Cholesky chol_v = Cholesky::factor_shifted(a);
  const Vector x_v = chol_v.solve(rhs);
  const Vector ev_v = eigen_values_sym(a);

  const double scale = norm_inf(a) * static_cast<double>(n);
  EXPECT_LT(norm_inf(prod_s - prod_v), 1e-12 * scale);
  EXPECT_LT(norm_inf(chol_s.lower() - chol_v.lower()), 1e-9 * scale);
  EXPECT_LT(max_abs_diff(x_s, x_v), 1e-8 * scale);
  EXPECT_LT(max_abs_diff(ev_s, ev_v), 1e-9 * scale);

  // eigen_sym with vectors under every table, on the SPD matrix and on an
  // indefinite clique-sized one: the same eigenvalues as scalar, and
  // reconstruction and orthogonality hold.
  const Matrix indefinite = [&rng] {
    Matrix m = random_matrix(25, 25, rng);
    m.symmetrize();
    return m;
  }();
  std::vector<util::SimdIsa> isas = {util::SimdIsa::Scalar};
  for (const Kernels* t : vector_tables()) isas.push_back(t->isa);
  for (const Matrix* m : {&a, &indefinite}) {
    const std::size_t nm = m->rows();
    const double mnorm = norm_inf(*m);
    set_active_isa(util::SimdIsa::Scalar);
    const Vector ref = eigen_sym(*m).values;
    for (const util::SimdIsa isa : isas) {
      set_active_isa(isa);
      const EigenSym es = eigen_sym(*m);
      set_active_isa(startup);
      EXPECT_LT(max_abs_diff(es.values, ref), 1e-12 * mnorm * static_cast<double>(nm))
          << util::isa_name(isa) << " n=" << nm;
      const Matrix vtv = transposed_times(es.vectors, es.vectors);
      EXPECT_LT(norm_inf(vtv - Matrix::identity(nm)), 1e-12) << util::isa_name(isa);
      const Matrix rec = es.vectors * Matrix::diag(es.values) * es.vectors.transposed();
      EXPECT_LT(norm_inf(rec - *m), 1e-12 * mnorm) << util::isa_name(isa) << " n=" << nm;
    }
  }
  set_active_isa(startup);
}

}  // namespace
}  // namespace soslock::linalg
