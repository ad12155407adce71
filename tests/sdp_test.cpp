// Tests for the interior-point SDP solver on problems with known solutions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "sdp/admm.hpp"
#include "sdp/ipm.hpp"
#include "sdp/problem.hpp"
#include "sdp/scaling.hpp"
#include "util/rng.hpp"

namespace soslock::sdp {
namespace {

using linalg::Matrix;

IpmOptions quiet() {
  IpmOptions o;
  o.tolerance = 1e-8;
  return o;
}

TEST(SparseSym, DotCountsOffDiagonalTwice) {
  SparseSym a;
  a.add(0, 1, 2.0);
  a.add(1, 1, 3.0);
  Matrix x = Matrix::from_rows({{1.0, 4.0}, {4.0, 5.0}});
  // <A, X> = 2*2*4 + 3*5 = 31.
  EXPECT_DOUBLE_EQ(a.dot(x), 31.0);
}

TEST(SparseSym, AddMergesDuplicates) {
  SparseSym a;
  a.add(0, 1, 2.0);
  a.add(1, 0, 3.0);  // same slot, transposed order
  EXPECT_EQ(a.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(a.entries[0].v, 5.0);
}

TEST(SparseSym, TimesDenseMatchesExplicit) {
  util::Rng rng(3);
  SparseSym a;
  a.add(0, 0, 1.5);
  a.add(0, 2, -2.0);
  a.add(1, 2, 0.7);
  Matrix dense(3, 3);
  a.add_to(dense);
  Matrix x(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.uniform(-1.0, 1.0);
  Matrix out(3, 3);
  a.times_dense(x, out);
  EXPECT_LT(linalg::norm_inf(out - dense * x), 1e-12);
}

// min x11 + x22 subject to x12 = 1, X PSD (2x2).
// Optimum: X = [[1,1],[1,1]] with objective 2 (since x11*x22 >= x12^2).
TEST(Ipm, TinyAnalyticSdp) {
  Problem p;
  const std::size_t b = p.add_block(2);
  p.set_block_objective(b, SparseSym::diagonal(2, 1.0));
  Row row;
  SparseSym a;
  a.add(0, 1, 0.5);  // <A, X> = x12 with the half convention
  row.blocks[b] = a;
  row.rhs = 1.0;
  p.add_row(std::move(row));

  const Solution sol = IpmSolver(quiet()).solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.primal_objective, 2.0, 1e-5);
  EXPECT_NEAR(sol.x[0](0, 1), 1.0, 1e-5);
  EXPECT_NEAR(sol.x[0](0, 0) * sol.x[0](1, 1), 1.0, 1e-4);
}

// Linear programming as diagonal SDP: min -x1 - 2 x2 s.t. x1 + x2 = 1, x >= 0.
// Optimum x = (0, 1), objective -2.
TEST(Ipm, DiagonalLp) {
  Problem p;
  const std::size_t b1 = p.add_block(1);
  const std::size_t b2 = p.add_block(1);
  p.set_block_objective(b1, SparseSym::diagonal(1, -1.0));
  p.set_block_objective(b2, SparseSym::diagonal(1, -2.0));
  Row row;
  SparseSym a1, a2;
  a1.add(0, 0, 1.0);
  a2.add(0, 0, 1.0);
  row.blocks[b1] = a1;
  row.blocks[b2] = a2;
  row.rhs = 1.0;
  p.add_row(std::move(row));

  const Solution sol = IpmSolver(quiet()).solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.primal_objective, -2.0, 1e-5);
  EXPECT_NEAR(sol.x[0](0, 0), 0.0, 1e-5);
  EXPECT_NEAR(sol.x[1](0, 0), 1.0, 1e-5);
}

// Free variables: min w s.t. w - x11 = 0, x11 = 2  =>  w = 2.
TEST(Ipm, FreeVariableEquality) {
  Problem p;
  const std::size_t b = p.add_block(1);
  const std::size_t w = p.add_free(1.0);
  {
    Row row;
    SparseSym a;
    a.add(0, 0, -1.0);
    row.blocks[b] = a;
    row.free_coeffs[w] = 1.0;
    row.rhs = 0.0;
    p.add_row(std::move(row));
  }
  {
    Row row;
    SparseSym a;
    a.add(0, 0, 1.0);
    row.blocks[b] = a;
    row.rhs = 2.0;
    p.add_row(std::move(row));
  }
  const Solution sol = IpmSolver(quiet()).solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.w[0], 2.0, 1e-5);
}

// Max eigenvalue bound: the SDP  min t  s.t.  t*I - A = Z >= 0  is expressed
// in primal form as: min <0,X>... here we instead test: max <A, X> s.t.
// tr X = 1, X >= 0 whose optimum is lambda_max(A).
TEST(Ipm, LambdaMaxViaTraceOne) {
  Matrix a = Matrix::from_rows({{2.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 2.0}});
  Problem p;
  const std::size_t b = p.add_block(3);
  SparseSym c;  // maximize <A,X> == minimize <-A,X>
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t cc = r; cc < 3; ++cc) c.add(r, cc, -a(r, cc));
  p.set_block_objective(b, c);
  Row row;
  SparseSym tr;
  for (std::size_t i = 0; i < 3; ++i) tr.add(i, i, 1.0);
  row.blocks[b] = tr;
  row.rhs = 1.0;
  p.add_row(std::move(row));

  const Solution sol = IpmSolver(quiet()).solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  const double lambda_max = linalg::eigen_sym(a).values.back();
  EXPECT_NEAR(-sol.primal_objective, lambda_max, 1e-5);
}

// Infeasible: x11 = 1 and x11 = -1 cannot both hold with X >= 0.
TEST(Ipm, DetectsPrimalInfeasible) {
  Problem p;
  const std::size_t b = p.add_block(1);
  {
    Row row;
    SparseSym a;
    a.add(0, 0, 1.0);
    row.blocks[b] = a;
    row.rhs = -1.0;  // x11 = -1 impossible for PSD
    p.add_row(std::move(row));
  }
  IpmOptions o = quiet();
  o.max_iterations = 80;
  const Solution sol = IpmSolver(o).solve(p);
  EXPECT_EQ(sol.status, SolveStatus::PrimalInfeasible);
}

// Infeasible by its first row, <D, X> = -1 with D positive diagonal; the
// other rows put random Gram entries at random right-hand sides. Once ||y||
// passes the infeasibility threshold, the dual residual of these iterates
// is rounding noise proportional to ||y|| (seed 2, n = 3: rd_rel 1.9e-6 at
// ||y|| = 4.4e10, so 4e-17 on the ray y / ||y||). A test of the residual
// itself (rd_rel < 1e-6) then misses, and the solve runs on until it
// stalls, diverges or collapses its step; the test on the ray, rd_rel <
// 1e-6 ||y|| / 1e8, certifies every one of them.
TEST(Ipm, DetectsPrimalInfeasibleWhenDualResidualGrowsWithY) {
  IpmOptions o = quiet();
  o.max_iterations = 80;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const std::size_t n : {2, 3, 5}) {
      util::Rng rng(seed);
      Problem p;
      const std::size_t b = p.add_block(n);
      Row first;
      for (std::size_t i = 0; i < n; ++i) first.blocks[b].add(i, i, rng.uniform(0.5, 2.0));
      first.rhs = -1.0;
      p.add_row(std::move(first));
      for (std::size_t k = 0; k < n; ++k) {
        Row row;
        const auto r = static_cast<std::size_t>(rng.uniform(0.0, n - 0.001));
        const auto c = static_cast<std::size_t>(rng.uniform(0.0, n - 0.001));
        row.blocks[b].add(std::min(r, c), std::max(r, c), rng.uniform(-2.0, 2.0));
        row.rhs = rng.uniform(-1.0, 1.0);
        p.add_row(std::move(row));
      }
      const Solution sol = IpmSolver(o).solve(p);
      EXPECT_EQ(sol.status, SolveStatus::PrimalInfeasible) << "seed " << seed << ", n " << n;
    }
  }
}

// A stalled solve returns its best iterate, but counts every Newton step it
// ran: on_iteration fires once per iteration, and the last call is the
// iteration that stopped the solve without stepping.
TEST(Ipm, StalledSolveCountsEveryStepItRan) {
  // Infeasible, x11 = -1e-6, but so nearly feasible (x11 = 0 with x22 ->
  // inf would satisfy x12 = 1) that the iterates stall rather than grow a
  // Farkas certificate.
  Problem p;
  const std::size_t b = p.add_block(2);
  SparseSym c;
  c.add(0, 0, 1.0);
  p.set_block_objective(b, c);
  Row r0;
  r0.blocks[b].add(0, 0, 1.0);
  r0.rhs = -1e-6;
  p.add_row(std::move(r0));
  Row r1;
  r1.blocks[b].add(0, 1, 0.5);
  r1.rhs = 1.0;
  p.add_row(std::move(r1));
  IpmOptions o = quiet();
  o.max_iterations = 200;
  SolveContext context;
  int calls = 0, last = -1;
  context.on_iteration = [&](const IterationInfo& info) {
    ++calls;
    last = info.iteration;
  };
  const Solution sol = IpmSolver(o).solve(p, context);
  EXPECT_EQ(sol.status, SolveStatus::MaxIterations);
  EXPECT_LT(sol.iterations, o.max_iterations);  // the stall exit, not the budget
  EXPECT_EQ(sol.iterations, calls - 1);
  EXPECT_EQ(sol.iterations, last);
}

// Multi-block coupling: two blocks sharing a constraint.
TEST(Ipm, MultiBlockCoupled) {
  // min tr(X1) + tr(X2) s.t. x1_11 + x2_11 = 4, x2_12 = 1.
  Problem p;
  const std::size_t b1 = p.add_block(1);
  const std::size_t b2 = p.add_block(2);
  p.set_block_objective(b1, SparseSym::diagonal(1, 1.0));
  p.set_block_objective(b2, SparseSym::diagonal(2, 1.0));
  {
    Row row;
    SparseSym a1, a2;
    a1.add(0, 0, 1.0);
    a2.add(0, 0, 1.0);
    row.blocks[b1] = a1;
    row.blocks[b2] = a2;
    row.rhs = 4.0;
    p.add_row(std::move(row));
  }
  {
    Row row;
    SparseSym a2;
    a2.add(0, 1, 0.5);
    row.blocks[b2] = a2;
    row.rhs = 1.0;
    p.add_row(std::move(row));
  }
  const Solution sol = IpmSolver(quiet()).solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  // Objective = x1_11 + x2_11 + x2_22 = (4 - a) + a + c = 4 + c with
  // a*c >= x2_12^2 = 1 and a <= 4, so c* = 1/4 at a = 4: optimum 4.25.
  EXPECT_NEAR(sol.x[1](0, 1), 1.0, 1e-5);
  EXPECT_NEAR(sol.primal_objective, 4.25, 1e-4);
  EXPECT_NEAR(sol.x[1](0, 0), 4.0, 1e-3);
}

class RandomFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

// Random feasible equality systems: generate a random PSD X*, random
// constraint matrices, set b = A(X*). The solver must find some feasible X
// with small residual and the duality gap must vanish for min-trace.
TEST_P(RandomFeasibility, SolvesToTolerance) {
  util::Rng rng(GetParam());
  const std::size_t n = 4 + rng.index(4);
  const std::size_t m = 3 + rng.index(5);
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
  Matrix xstar = linalg::transposed_times(g, g);

  Problem p;
  const std::size_t b = p.add_block(n);
  p.set_block_objective(b, SparseSym::diagonal(n, 1.0));
  for (std::size_t i = 0; i < m; ++i) {
    Row row;
    SparseSym a;
    for (int k = 0; k < 4; ++k) {
      const std::size_t r = rng.index(n);
      const std::size_t c = rng.index(n);
      a.add(std::min(r, c), std::max(r, c), rng.uniform(-1.0, 1.0));
    }
    if (a.empty()) a.add(0, 0, 1.0);
    Matrix dense(n, n);
    a.add_to(dense);
    row.rhs = linalg::dot(dense, xstar);
    row.blocks[b] = a;
    p.add_row(std::move(row));
  }
  const Solution sol = IpmSolver(quiet()).solve(p);
  ASSERT_TRUE(sol.status == SolveStatus::Optimal) << to_string(sol.status);
  EXPECT_LT(sol.primal_residual, 1e-6);
  EXPECT_LT(sol.gap, 1e-6);
  // Returned X must be PSD.
  EXPECT_GT(linalg::min_eigenvalue(sol.x[0]), -1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFeasibility, ::testing::Range<std::uint64_t>(1, 9));

TEST(Scaling, RowsNormalizedToUnitInfNorm) {
  Problem p;
  const std::size_t b = p.add_block(2);
  Row row;
  SparseSym a;
  a.add(0, 0, 1000.0);
  row.blocks[b] = a;
  row.rhs = 500.0;
  p.add_row(std::move(row));
  const Scaling s = equilibrate_rows(p);
  EXPECT_DOUBLE_EQ(s.row_scale[0], 1000.0);
  EXPECT_DOUBLE_EQ(p.rows()[0].blocks.at(b).entries[0].v, 1.0);
  EXPECT_DOUBLE_EQ(p.rows()[0].rhs, 0.5);
}

TEST(Scaling, ZeroRowLeftAlone) {
  Problem p;
  p.add_block(1);
  Row row;  // completely empty row with rhs 0
  p.add_row(std::move(row));
  const Scaling s = equilibrate_rows(p);
  EXPECT_DOUBLE_EQ(s.row_scale[0], 1.0);
}

TEST(Scaling, NearZeroRowLeftAloneSoDualRescaleStaysFinite) {
  // A degenerate constraint whose coefficients an aggressive Gram prune
  // cancelled down to roundoff (or a denormal) must not be equilibrated:
  // 1/norm would amplify the noise to O(1) — and overflow to inf for
  // denormal norms — which then poisons y_orig = y / row_scale with
  // inf/NaN in the warm-start dual rescale.
  Problem p;
  const std::size_t b = p.add_block(1);
  {
    Row row;
    SparseSym a;
    a.add(0, 0, 1e-300);  // far below kMinRowNorm, 1/x still finite
    row.blocks[b] = a;
    row.rhs = 1e-320;  // denormal: 1/x overflows to inf
    p.add_row(std::move(row));
  }
  {
    Row row;
    SparseSym a;
    a.add(0, 0, 1e-13);  // roundoff-level residual coefficients
    row.blocks[b] = a;
    p.add_row(std::move(row));
  }
  const Scaling s = equilibrate_rows(p);
  for (std::size_t i = 0; i < p.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(s.row_scale[i], 1.0) << "row " << i;
    ASSERT_TRUE(std::isfinite(s.row_scale[i]));
    // The (un)rescale of warm-start duals across this scaling stays finite.
    const double y = 3.5;
    EXPECT_TRUE(std::isfinite(y * s.row_scale[i]));
    EXPECT_TRUE(std::isfinite(y / s.row_scale[i]));
  }
  for (const Row& row : p.rows())
    for (const auto& [j, a] : row.blocks)
      for (const auto& t : a.entries) EXPECT_TRUE(std::isfinite(t.v));
}

TEST(Scaling, BarelyAboveThresholdStillScales) {
  Problem p;
  const std::size_t b = p.add_block(1);
  Row row;
  SparseSym a;
  a.add(0, 0, 1e-9);  // tiny but meaningful: still normalized
  row.blocks[b] = a;
  p.add_row(std::move(row));
  const Scaling s = equilibrate_rows(p);
  EXPECT_DOUBLE_EQ(s.row_scale[0], 1e-9);
  EXPECT_DOUBLE_EQ(p.rows()[0].blocks.at(b).entries[0].v, 1.0);
}

TEST(Problem, StatsString) {
  Problem p;
  p.add_block(3);
  p.add_free(0.0);
  Row row;
  SparseSym a;
  a.add(0, 0, 1.0);
  row.blocks[0] = a;
  p.add_row(std::move(row));
  const std::string s = p.stats();
  EXPECT_NE(s.find("1 rows"), std::string::npos);
  EXPECT_NE(s.find("1 free"), std::string::npos);
}

/// Random feasible min-trace SDP: b = A(X*) for a random PSD X*.
Problem random_feasible_sdp(std::uint64_t seed, std::size_t n, std::size_t m) {
  util::Rng rng(seed);
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
  const Matrix xstar = linalg::transposed_times(g, g);

  Problem p;
  const std::size_t b = p.add_block(n);
  p.set_block_objective(b, SparseSym::diagonal(n, 1.0));
  for (std::size_t i = 0; i < m; ++i) {
    Row row;
    SparseSym a;
    for (int k = 0; k < 4; ++k) {
      const std::size_t r = rng.index(n);
      const std::size_t c = rng.index(n);
      a.add(std::min(r, c), std::max(r, c), rng.uniform(-1.0, 1.0));
    }
    if (a.empty()) a.add(0, 0, 1.0);
    Matrix dense(n, n);
    a.add_to(dense);
    row.rhs = linalg::dot(dense, xstar);
    row.blocks[b] = a;
    p.add_row(std::move(row));
  }
  return p;
}

/// Random SDP with free variables over a mix of 1x1 and larger blocks, both
/// sides strictly feasible: b = A(X*) + B w* for a PD X*, and f = B^T y* for
/// a y* small enough that Z* = I - sum y*_i A_i stays PD, so the optimum is
/// attained. Exercises the free-variable elimination of the KKT solve and the
/// closed-form 1x1 step length together.
Problem random_free_variable_sdp(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<std::size_t> sizes = {1, 6, 1, 7, 1};
  const std::size_t nf = 4, m = 16;
  std::vector<Matrix> xstar;
  for (std::size_t n : sizes) {
    Matrix g(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
    Matrix x = linalg::transposed_times(g, g);
    for (std::size_t d = 0; d < n; ++d) x(d, d) += 0.1;
    xstar.push_back(std::move(x));
  }
  const linalg::Vector wstar = rng.uniform_vector(nf, -1.0, 1.0);
  const linalg::Vector ystar = rng.uniform_vector(m, -0.005, 0.005);
  std::vector<Row> rows(m);
  linalg::Vector f(nf, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    Row& row = rows[i];
    for (int t = 0; t < 2; ++t) {
      const std::size_t j = rng.index(sizes.size());
      SparseSym& a = row.blocks[j];
      for (int k = 0; k < 3; ++k) {
        const std::size_t r = rng.index(sizes[j]);
        const std::size_t c = rng.index(sizes[j]);
        a.add(std::min(r, c), std::max(r, c), rng.uniform(-1.0, 1.0));
      }
    }
    for (std::size_t v = 0; v < nf; ++v) {
      if (i % nf == v || rng.uniform(0.0, 1.0) < 0.4) row.free_coeffs[v] = rng.uniform(-1.0, 1.0);
    }
    row.rhs = 0.0;
    for (const auto& [j, a] : row.blocks) row.rhs += a.dot(xstar[j]);
    for (const auto& [v, c] : row.free_coeffs) {
      row.rhs += c * wstar[v];
      f[v] += c * ystar[i];
    }
  }
  Problem p;
  for (std::size_t n : sizes)
    p.set_block_objective(p.add_block(n), SparseSym::diagonal(n, 1.0));
  for (std::size_t v = 0; v < nf; ++v) p.add_free(f[v]);
  for (Row& row : rows) p.add_row(std::move(row));
  return p;
}

// The returned primal-dual pair must itself certify the optimum: X and w
// satisfy every row, f = B^T y holds for the free columns,
// Z = C - sum y_i A_i rebuilt from the returned multipliers is PSD,
// b'y equals the primal objective and <X, Z> ~ 0. The check computes every
// KKT residual from the problem data alone, so a wrong Schur operator cannot
// pass it. This makes the solver's answer independently checkable, like the
// SOS-level audit.
void expect_kkt_certificate(const Problem& p, const Solution& sol,
                            const std::string& label) {
  const double obj_tol = 1e-5 * (1.0 + std::fabs(sol.primal_objective));
  double dual_objective = 0.0, complementarity = 0.0;
  for (std::size_t i = 0; i < p.num_rows(); ++i) {
    dual_objective += p.rhs(i) * sol.y[i];
    double ax = 0.0;
    for (const auto& [j, a] : p.rows()[i].blocks) ax += a.dot(sol.x[j]);
    for (const auto& [v, c] : p.rows()[i].free_coeffs) ax += c * sol.w[v];
    EXPECT_NEAR(ax, p.rhs(i), 1e-6 * (1.0 + std::fabs(p.rhs(i))))
        << label << " row " << i;
  }
  for (std::size_t v = 0; v < p.num_free(); ++v) {
    double rf = p.free_objective()[v];
    for (std::size_t i = 0; i < p.num_rows(); ++i) {
      const auto it = p.rows()[i].free_coeffs.find(v);
      if (it != p.rows()[i].free_coeffs.end()) rf -= it->second * sol.y[i];
    }
    EXPECT_NEAR(rf, 0.0, 1e-6 * (1.0 + std::fabs(p.free_objective()[v])))
        << label << " free " << v;
  }
  for (std::size_t j = 0; j < p.num_blocks(); ++j) {
    // Rebuild Z from scratch out of the returned multipliers.
    Matrix z(p.block_size(j), p.block_size(j));
    p.block_objective(j).add_to(z);
    for (std::size_t i = 0; i < p.num_rows(); ++i) {
      const auto it = p.rows()[i].blocks.find(j);
      if (it == p.rows()[i].blocks.end()) continue;
      Matrix a_dense(p.block_size(j), p.block_size(j));
      it->second.add_to(a_dense);
      z.axpy(-sol.y[i], a_dense);
    }
    EXPECT_GT(linalg::min_eigenvalue(z), -1e-7) << label << " block " << j;
    complementarity += linalg::dot(sol.x[j], z);
  }
  EXPECT_NEAR(dual_objective, sol.primal_objective, obj_tol) << label;
  EXPECT_NEAR(complementarity, 0.0, obj_tol) << label;
}

TEST(Ipm, DualCertificateVerifiable) {
  Problem tiny;
  const std::size_t b = tiny.add_block(2);
  tiny.set_block_objective(b, SparseSym::diagonal(2, 1.0));
  Row row;
  row.blocks[b].add(0, 1, 0.5);
  row.rhs = 1.0;
  tiny.add_row(std::move(row));

  std::vector<Problem> problems;
  problems.push_back(std::move(tiny));
  problems.push_back(random_feasible_sdp(5, 9, 12));
  problems.push_back(random_feasible_sdp(23, 9, 12));
  problems.push_back(random_free_variable_sdp(7));
  problems.push_back(random_free_variable_sdp(41));
  for (std::size_t k = 0; k < problems.size(); ++k) {
    const Solution sol = IpmSolver(quiet()).solve(problems[k]);
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << k;
    expect_kkt_certificate(problems[k], sol, std::to_string(k));
  }
}

/// Random SDP whose Schur complement splits into four blocks: rows of
/// component A touch a 6x6 PSD block, rows of component B touch a 5x5 and a
/// 4x4 block, one row touches only a 1x1 block (a singleton), and one row
/// carries free coefficients only (a singleton of zero Schur diagonal). Free
/// variables couple A, B and the free-only row; the 1x1 row has none. Both
/// sides are strictly feasible as in random_free_variable_sdp. Block
/// coefficients span [-10, 10] and so do the free-only row's, so the Schur
/// diagonal is far from 1: a shift ladder relative to the free-only row's
/// own zero diagonal instead of the whole system's would give it a 1e-13
/// pivot, swamp S = B^T M^{-1} B with its shift and stall the solve. With
/// `interleave`, the same rows come in round-robin order across the
/// components, B first, so the blocks' rows are no longer contiguous and the
/// block order changes.
Problem random_multi_component_sdp(std::uint64_t seed, bool interleave) {
  util::Rng rng(seed);
  const std::vector<std::size_t> sizes = {6, 5, 4, 1};
  // Blocks each component's rows touch, and its row count.
  const std::vector<std::vector<std::size_t>> touches = {{0}, {1, 2}, {3}, {}};
  const std::vector<std::size_t> counts = {9, 8, 1, 1};
  const std::size_t nf = 3;
  std::vector<Matrix> xstar;
  for (std::size_t n : sizes) {
    Matrix g(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
    Matrix x = linalg::transposed_times(g, g);
    for (std::size_t d = 0; d < n; ++d) x(d, d) += 0.1;
    xstar.push_back(std::move(x));
  }
  const linalg::Vector wstar = rng.uniform_vector(nf, -1.0, 1.0);
  std::vector<std::vector<Row>> comps(touches.size());
  linalg::Vector f(nf, 0.0);
  for (std::size_t k = 0; k < touches.size(); ++k) {
    for (std::size_t n = 0; n < counts[k]; ++n) {
      Row row;
      for (std::size_t j : touches[k]) {
        SparseSym& a = row.blocks[j];
        for (int t = 0; t < 3; ++t) {
          const std::size_t r = rng.index(sizes[j]);
          const std::size_t c = rng.index(sizes[j]);
          a.add(std::min(r, c), std::max(r, c), rng.uniform(-10.0, 10.0));
        }
      }
      if (k != 2) {
        const double fscale = k == 3 ? 10.0 : 1.0;
        for (std::size_t v = 0; v < nf; ++v) {
          if (n % nf == v || rng.uniform(0.0, 1.0) < 0.3)
            row.free_coeffs[v] = fscale * rng.uniform(-1.0, 1.0);
        }
      }
      const double ystar = rng.uniform(-5e-4, 5e-4);
      for (const auto& [j, a] : row.blocks) row.rhs += a.dot(xstar[j]);
      for (const auto& [v, c] : row.free_coeffs) {
        row.rhs += c * wstar[v];
        f[v] += c * ystar;
      }
      comps[k].push_back(std::move(row));
    }
  }
  Problem p;
  for (std::size_t n : sizes)
    p.set_block_objective(p.add_block(n), SparseSym::diagonal(n, 1.0));
  for (std::size_t v = 0; v < nf; ++v) p.add_free(f[v]);
  if (!interleave) {
    for (auto& rows : comps)
      for (Row& row : rows) p.add_row(std::move(row));
    return p;
  }
  const std::vector<std::size_t> round = {1, 0, 3, 2};
  for (std::size_t n = 0; n < counts[0] || n < counts[1]; ++n) {
    for (std::size_t k : round) {
      if (n < comps[k].size()) p.add_row(std::move(comps[k][n]));
    }
  }
  return p;
}

// The multi-block Schur path end to end: the KKT certificate holds on a
// problem with several Schur blocks, singletons and a free-variable border,
// and permuting its rows so the blocks interleave (new local indices, new
// block order, same global shift scale) leaves the optimum unchanged.
TEST(Ipm, MultiComponentKktAndRowOrderInvariance) {
  for (const std::uint64_t seed : {3u, 19u}) {
    const Problem grouped = random_multi_component_sdp(seed, false);
    const Problem interleaved = random_multi_component_sdp(seed, true);
    ASSERT_EQ(grouped.num_rows(), interleaved.num_rows());
    const Solution a = IpmSolver(quiet()).solve(grouped);
    const Solution b = IpmSolver(quiet()).solve(interleaved);
    ASSERT_EQ(a.status, SolveStatus::Optimal) << seed;
    ASSERT_EQ(b.status, SolveStatus::Optimal) << seed;
    expect_kkt_certificate(grouped, a, "grouped " + std::to_string(seed));
    expect_kkt_certificate(interleaved, b, "interleaved " + std::to_string(seed));
    EXPECT_NEAR(b.primal_objective, a.primal_objective,
                1e-8 * std::fabs(a.primal_objective))
        << seed;
  }
}

TEST(Ipm, SolutionInvariantUnderRowScaling) {
  // Multiplying a constraint row (and its rhs) by a large factor must not
  // change the primal solution (the equilibration undoes it).
  auto build = [](double scale) {
    Problem p;
    const std::size_t b = p.add_block(2);
    p.set_block_objective(b, SparseSym::diagonal(2, 1.0));
    Row row;
    SparseSym a;
    a.add(0, 1, 0.5 * scale);
    row.blocks[b] = a;
    row.rhs = 1.0 * scale;
    p.add_row(std::move(row));
    return p;
  };
  const Solution s1 = IpmSolver(quiet()).solve(build(1.0));
  const Solution s2 = IpmSolver(quiet()).solve(build(1e6));
  ASSERT_EQ(s1.status, SolveStatus::Optimal);
  ASSERT_EQ(s2.status, SolveStatus::Optimal);
  EXPECT_NEAR(s1.primal_objective, s2.primal_objective, 1e-5);
  EXPECT_NEAR(s1.x[0](0, 1), s2.x[0](0, 1), 1e-5);
  // Dual multipliers differ by exactly the row scale.
  EXPECT_NEAR(s1.y[0], s2.y[0] * 1e6, 1e-4);
}

// --- psd_step_length: the screened step bound against a full-eig oracle ---

/// Blocks of sizes 1, 2, 6 and 20: random PD X (G G^T + I) with their
/// factors, and random symmetric directions dX.
struct StepBlocks {
  std::vector<Matrix> x, dx;
  std::vector<linalg::Cholesky> chol;
};

Matrix random_square(std::size_t n, util::Rng& rng) {
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
  return g;
}

StepBlocks random_step_blocks(std::uint64_t seed) {
  util::Rng rng(seed);
  StepBlocks b;
  for (const std::size_t n : {1, 2, 6, 20}) {
    const Matrix g = random_square(n, rng);
    Matrix x = g * g.transposed();
    for (std::size_t d = 0; d < n; ++d) x(d, d) += 1.0;
    Matrix dx = random_square(n, rng);
    dx.symmetrize();
    dx.scale(rng.uniform(0.5, 20.0));
    b.chol.push_back(linalg::Cholesky::factor_shifted(x));
    b.x.push_back(std::move(x));
    b.dx.push_back(std::move(dx));
  }
  return b;
}

/// The full-eigenvalue step bound of one block: min(cap, -1/lambda_min) of
/// L^{-1} dX L^{-T}, or cap when that congruence is PSD.
double oracle_block_step(const linalg::Cholesky& chol, const Matrix& dx, double cap) {
  Matrix t = chol.solve_lower(chol.solve_lower(dx).transposed());
  t.symmetrize();
  const double lambda_min = linalg::min_eigenvalue(t);
  return lambda_min < 0.0 ? std::min(cap, -1.0 / lambda_min) : cap;
}

TEST(PsdStepLength, MatchesFullEigenOracleFromEveryStart) {
  const double cap = 1.0 / 0.98;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const StepBlocks b = random_step_blocks(seed);
    double oracle = cap;
    std::size_t binding = 0;
    for (std::size_t j = 0; j < b.x.size(); ++j) {
      const double step = oracle_block_step(b.chol[j], b.dx[j], cap);
      if (step < oracle) {
        oracle = step;
        binding = j;
      }
    }
    // Sized for the largest block (20) here; the other tests start from an
    // empty work, which grows as needed.
    sdp::StepLengthWork work(20);
    std::size_t start = 0;
    const double first = psd_step_length(b.x, b.chol, b.dx, cap, start, work);
    EXPECT_NEAR(first, oracle, 1e-6 * oracle) << "seed " << seed;
    if (oracle < cap) {
      EXPECT_EQ(start, binding) << "seed " << seed;
    }
    for (std::size_t s0 = 1; s0 < b.x.size(); ++s0) {
      start = s0;
      EXPECT_DOUBLE_EQ(psd_step_length(b.x, b.chol, b.dx, cap, start, work), first)
          << "seed " << seed << ", start " << s0;
    }
  }
}

TEST(PsdStepLength, PsdDirectionsReturnCap) {
  const double cap = 1.0 / 0.98;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    StepBlocks b = random_step_blocks(seed);
    util::Rng rng(seed + 100);
    for (Matrix& dx : b.dx) {
      const Matrix h = random_square(dx.rows(), rng);
      dx = h * h.transposed();
    }
    sdp::StepLengthWork work;
    std::size_t start = 2;
    EXPECT_EQ(psd_step_length(b.x, b.chol, b.dx, cap, start, work), cap) << seed;
    EXPECT_EQ(start, 2u);
  }
}

TEST(PsdStepLength, HugeNegativeDirectionCollapsesTheStep) {
  for (std::size_t j = 0; j < 4; ++j) {
    StepBlocks b = random_step_blocks(7);
    const std::size_t n = b.dx[j].rows();
    b.dx[j] = Matrix::identity(n);
    b.dx[j].scale(-1e12);
    sdp::StepLengthWork work;
    std::size_t start = 0;
    const double step = psd_step_length(b.x, b.chol, b.dx, 1.0, start, work);
    EXPECT_GT(step, 0.0) << "block " << j;
    EXPECT_LE(step, 1e-10) << "block " << j;
    EXPECT_EQ(start, j);
  }
}

// --- admm_split_psd: the closed-form and eigensolver splits against eigen_sym ---

/// The eigen_sym split of U: S = U + U^-, X = rho U^-, with U^- the Gram
/// product of the scaled negative eigenvectors.
void eigen_split(const Matrix& u, double rho, Matrix& s, Matrix& x) {
  const std::size_t n = u.rows();
  const linalg::EigenSym eig = linalg::eigen_sym(u);
  Matrix neg(n, n);
  for (std::size_t k = 0; k < n && eig.values[k] < 0.0; ++k) {
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        neg(r, c) -= eig.values[k] * eig.vectors(r, k) * eig.vectors(c, k);
  }
  s = u + neg;
  x = rho * neg;
}

/// Symmetric test inputs of size 1 and 2: random, mixed-sign diagonals,
/// b = 0, equal eigenvalues, zero, negative and positive definite, and
/// random entries near 1e150 and 1e-150. A few random blocks of size 3 and
/// 7 cover the eigensolver path.
std::vector<Matrix> split_inputs() {
  std::vector<Matrix> inputs;
  util::Rng rng(2024);
  for (const std::size_t n : {1, 2}) {
    for (int k = 0; k < 200; ++k) {
      Matrix u = random_square(n, rng);
      u.symmetrize();
      u.scale(std::pow(10.0, rng.uniform(-3.0, 3.0)));
      inputs.push_back(u);
    }
    for (const double scale : {1e150, 1e-150}) {
      for (int k = 0; k < 20; ++k) {
        Matrix u = random_square(n, rng);
        u.symmetrize();
        u.scale(scale);
        inputs.push_back(u);
      }
    }
    inputs.push_back(Matrix(n, n));
  }
  for (const double a : {-3.0, 1e-9, 2.5}) {
    for (const double c : {-0.7, 4.0}) {
      inputs.push_back(Matrix::from_rows({{a, 0.0}, {0.0, c}}));  // b = 0
      inputs.push_back(Matrix::from_rows({{a, 0.3}, {0.3, c}}));
    }
  }
  inputs.push_back(Matrix::from_rows({{2.0, 0.0}, {0.0, 2.0}}));  // equal eigenvalues
  inputs.push_back(Matrix::from_rows({{-2.0, 0.0}, {0.0, -2.0}}));
  inputs.push_back(Matrix::from_rows({{-2.0, 1.0}, {1.0, -3.0}}));  // negative definite
  inputs.push_back(Matrix::from_rows({{2.0, 1.0}, {1.0, 3.0}}));    // positive definite
  inputs.push_back(Matrix::from_rows({{1.0, 1.0}, {1.0, 1.0}}));    // PSD, singular
  inputs.push_back(Matrix::from_rows({{-1.0, 1.0}, {1.0, -1.0}}));  // NSD, singular
  inputs.push_back(Matrix::from_rows({{1.0, 1e-9}, {1e-9, -1.0}}));
  inputs.push_back(Matrix::from_rows({{1e150, -3e150}, {-3e150, 2e150}}));
  inputs.push_back(Matrix::from_rows({{-1e-150, 2e-150}, {2e-150, 5e-151}}));
  for (const std::size_t n : {3, 7}) {
    for (int k = 0; k < 5; ++k) {
      Matrix u = random_square(n, rng);
      u.symmetrize();
      inputs.push_back(u);
    }
  }
  return inputs;
}

TEST(AdmmSplit, MatchesEigenSplit) {
  const double tol = 1e-13;
  for (const Matrix& u : split_inputs()) {
    const double unorm = std::max(linalg::norm_inf(u), 1e-300);
    for (const double rho : {1.0, 0.37, 25.0}) {
      Matrix s_ref, x_ref;
      eigen_split(u, rho, s_ref, x_ref);
      const Matrix x_old = Matrix::identity(u.rows());
      Matrix s(u.rows(), u.rows()), x = x_old;
      linalg::EigenWork work;
      const double change = admm_split_psd(u, rho, s, x, work);
      const std::string where = u.str(17) + " rho " + std::to_string(rho);
      EXPECT_LE(linalg::norm_inf(s - s_ref), tol * unorm) << where;
      EXPECT_LE(linalg::norm_inf(x - x_ref), tol * rho * unorm) << where;
      EXPECT_EQ(change, linalg::norm_inf(x - x_old)) << where;
      // S and X are PSD, S - X/rho = U, and X S vanishes to rounding.
      EXPECT_GE(linalg::min_eigenvalue(s), -tol * unorm) << where;
      EXPECT_GE(linalg::min_eigenvalue(x), -tol * rho * unorm) << where;
      Matrix back = s;
      back.axpy(-1.0 / rho, x);
      EXPECT_LE(linalg::norm_inf(back - u), tol * unorm) << where;
      EXPECT_LE(linalg::norm_inf(x * s), tol * rho * unorm * unorm) << where;
    }
  }
}

/// A 25 x 25 symmetric U (the clock-tree clique size) with the given
/// spectrum in a random orthonormal basis.
Matrix clique_with_spectrum(const linalg::Vector& values, util::Rng& rng) {
  const std::size_t n = values.size();
  Matrix seed = random_square(n, rng);
  seed.symmetrize();
  const Matrix q = linalg::eigen_sym_jacobi(seed).vectors;
  Matrix u = q * Matrix::diag(values) * q.transposed();
  u.symmetrize();
  return u;
}

TEST(AdmmSplit, CliqueSizeMatchesEigenSplit) {
  // n = 25 through the Cholesky screen and the eigensolver path, against
  // the eigen_sym oracle; one workspace and one (s, x) pair serve every
  // call, and their storage never moves.
  const std::size_t n = 25;
  util::Rng rng(2025);
  auto spectrum = [&rng, n](std::size_t nneg) {
    linalg::Vector d(n);
    for (std::size_t k = 0; k < n; ++k)
      d[k] = (k < nneg ? -1.0 : 1.0) * std::pow(10.0, rng.uniform(-2.0, 1.0));
    return d;
  };
  struct Case {
    std::string name;
    Matrix u;
    bool screened;  // -U factors, so the split skips the eigensolver
  };
  std::vector<Case> cases;
  cases.push_back({"negative definite", clique_with_spectrum(spectrum(n), rng), true});
  {
    // -U PSD with an exactly zero row and column: the Cholesky pivot there
    // is exactly 0, so the screen fails and the eigensolver runs.
    Matrix g = random_square(n, rng);
    Matrix u = linalg::transposed_times(g, g);
    for (std::size_t k = 0; k < n; ++k) u(12, k) = u(k, 12) = 0.0;
    u.scale(-1.0);
    cases.push_back({"-U PSD singular", u, false});
  }
  cases.push_back({"one negative", clique_with_spectrum(spectrum(1), rng), false});
  cases.push_back({"24 negative", clique_with_spectrum(spectrum(24), rng), false});
  cases.push_back({"positive definite", clique_with_spectrum(spectrum(0), rng), false});
  {
    Matrix u = random_square(n, rng);
    u.symmetrize();
    cases.push_back({"random", u, false});
  }

  linalg::EigenWork work(n);
  Matrix s(n, n), x(n, n);
  const double* s_storage = s.data();
  const double* x_storage = x.data();
  for (const Case& c : cases) {
    Matrix neg_u = c.u;
    neg_u.scale(-1.0);
    EXPECT_EQ(linalg::Cholesky::factor(neg_u).has_value(), c.screened) << c.name;
    const double unorm = linalg::norm_inf(c.u);
    const double tol = 1e-12;
    for (const double rho : {1.0, 0.37, 25.0}) {
      Matrix s_ref, x_ref;
      eigen_split(c.u, rho, s_ref, x_ref);
      const Matrix x_old = x;
      const double change = admm_split_psd(c.u, rho, s, x, work);
      const std::string where = c.name + " rho " + std::to_string(rho);
      EXPECT_EQ(s.data(), s_storage) << where;
      EXPECT_EQ(x.data(), x_storage) << where;
      EXPECT_LE(linalg::norm_inf(s - s_ref), tol * unorm) << where;
      EXPECT_LE(linalg::norm_inf(x - x_ref), tol * rho * unorm) << where;
      EXPECT_EQ(change, linalg::norm_inf(x - x_old)) << where;
      Matrix back = s;
      back.axpy(-1.0 / rho, x);
      EXPECT_LE(linalg::norm_inf(back - c.u), tol * unorm) << where;
      if (c.screened) {
        EXPECT_EQ(linalg::norm_inf(s), 0.0) << where;
      }
    }
  }
}

TEST(AdmmSplit, NanInUComesBackNonFinite) {
  // The ADMM watchdog (iterate_finite) sums every entry of S and X: a NaN
  // in U must not come back as a finite iterate, wherever it sits.
  util::Rng rng(5);
  for (const std::size_t n : {1, 2, 3}) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = r; c < n; ++c) {
        for (const double scale : {-1.0, 1.0}) {
          Matrix u = random_square(n, rng);
          u.symmetrize();
          u.scale(scale);
          u(r, c) = u(c, r) = std::numeric_limits<double>::quiet_NaN();
          Matrix s, x;
          linalg::EigenWork work;
          admm_split_psd(u, 1.0, s, x, work);
          double sum = 0.0;
          for (std::size_t k = 0; k < n * n; ++k) sum += s.data()[k] + x.data()[k];
          EXPECT_FALSE(std::isfinite(sum))
              << "n " << n << " at (" << r << ", " << c << ")";
        }
      }
    }
  }
}

TEST(Ipm, EmptyProblemTrivial) {
  Problem p;
  p.add_block(1);
  const Solution sol = IpmSolver(quiet()).solve(p);
  EXPECT_TRUE(sol.feasible());
}

}  // namespace
}  // namespace soslock::sdp
