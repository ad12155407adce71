// The IPM's Schur assembly against the panel oracle. sdp::schur_complement
// assembles M_ik = sum_j <A_ij, Z_j^{-1} A_kj X_j> the way a solve does:
// per PSD block, P^T (Z^{-1} (*) X) P over the block's Gram entries. The
// oracle below is the dense-panel formula it replaced, kept here as the
// reference: per row i, the n x n panel W = Z^{-1} A_i X from rank-1 outer
// products, then M_ik = <A_k, (W + W^T)/2>. The two must agree to 1e-13 of
// each PSD block's largest entry on
//   * the fourth-order PLL's advection SDP (20x20, 6x6 and 1x1 blocks and
//     free variables), built as core::AdvectionEngine builds its first step;
//   * an S-procedure program whose multiplier Gram entries sit in several
//     rows;
//   * the chordal-lowered K=16 clock tree, whose overlap ties are plain
//     rows after the original ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/advection.hpp"
#include "core/certifier_common.hpp"
#include "core/lyapunov.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "poly/poly_lin.hpp"
#include "poly/polynomial.hpp"
#include "sdp/ipm.hpp"
#include "sdp/lowering.hpp"
#include "sdp/problem.hpp"
#include "sdp/structure.hpp"
#include "sos/program.hpp"
#include "util/rng.hpp"

namespace soslock {
namespace {

using linalg::Matrix;
using poly::PolyLin;
using poly::Polynomial;
using sdp::Problem;

/// Block j's part of the Schur complement by the panel formula, dense over
/// the problem's rows.
Matrix panel_schur(const Problem& p, std::size_t j, const Matrix& x, const Matrix& zinv) {
  const std::vector<std::vector<sdp::BlockRowView>> views =
      sdp::build_block_row_views(p, sdp::build_structure(p));
  const std::size_t n = p.block_size(j);
  Matrix m(p.num_rows(), p.num_rows()), panel(n, n);
  auto add_outer = [&panel, n](double v, const double* u, const double* w) {
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) panel(a, b) += v * u[a] * w[b];
  };
  for (const sdp::BlockRowView& vi : views[j]) {
    // panel = Z^{-1} A_i X; zinv is symmetric, so its columns are its rows.
    panel.fill(0.0);
    for (const sdp::Triplet& t : vi.coeff->entries) {
      add_outer(t.v, zinv.row_ptr(t.r), x.row_ptr(t.c));
      if (t.r != t.c) add_outer(t.v, zinv.row_ptr(t.c), x.row_ptr(t.r));
    }
    for (const sdp::BlockRowView& vk : views[j]) {
      double acc = 0.0;
      for (const sdp::Triplet& t : vk.coeff->entries) {
        const double sym = 0.5 * (panel(t.r, t.c) + panel(t.c, t.r));
        acc += (t.r == t.c ? 1.0 : 2.0) * t.v * sym;
      }
      m(vi.row, vk.row) += acc;
    }
  }
  return m;
}

Matrix random_pd(std::size_t n, util::Rng& rng) {
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
  Matrix x = linalg::times_transposed(g, g);
  for (std::size_t d = 0; d < n; ++d) x(d, d) += 0.1;
  return x;
}

/// schur_complement against the oracle, one PSD block at a time: with every
/// other block's X zero, only block j contributes to M.
void expect_matches_panel_oracle(const Problem& p, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Matrix> x, zinv, zero;
  for (const std::size_t n : p.block_sizes()) {
    x.push_back(random_pd(n, rng));
    Matrix inv;
    linalg::Cholesky::factor_shifted(random_pd(n, rng)).inverse(inv);
    zinv.push_back(std::move(inv));
    zero.emplace_back(n, n);
  }
  for (std::size_t j = 0; j < p.num_blocks(); ++j) {
    const Matrix oracle = panel_schur(p, j, x[j], zinv[j]);
    std::vector<Matrix> xj = zero;
    xj[j] = x[j];
    const Matrix m = sdp::schur_complement(p, xj, zinv);
    ASSERT_EQ(m.rows(), oracle.rows());
    const double scale = linalg::norm_inf(oracle);
    double worst = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r)
      for (std::size_t c = 0; c < m.cols(); ++c)
        worst = std::max(worst, std::fabs(m(r, c) - oracle(r, c)));
    EXPECT_LE(worst, 1e-13 * scale) << "block " << j << " of size " << p.block_size(j);
  }
}

/// Number of blocks per size.
std::map<std::size_t, std::size_t> size_histogram(const Problem& p) {
  std::map<std::size_t, std::size_t> sizes;
  for (const std::size_t n : p.block_sizes()) ++sizes[n];
  return sizes;
}

/// Does some Gram entry of some block sit in more than one row?
bool entry_in_several_rows(const Problem& p) {
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, int> rows_of_entry;
  for (const sdp::Row& row : p.rows())
    for (const auto& [j, a] : row.blocks)
      for (const sdp::Triplet& t : a.entries)
        if (++rows_of_entry[{j, t.r, t.c}] > 1) return true;
  return false;
}

Polynomial ellipsoid(std::size_t nvars, const std::vector<double>& semiaxes) {
  Polynomial b(nvars);
  for (std::size_t i = 0; i < semiaxes.size(); ++i) {
    const Polynomial xi = Polynomial::variable(nvars, i);
    b += (1.0 / (semiaxes[i] * semiaxes[i])) * xi * xi;
  }
  b -= Polynomial::constant(nvars, 1.0);
  b *= 0.5;
  return b;
}

/// The fourth-order PLL's first advection step from the pipeline's initial
/// ellipsoid, as core::AdvectionEngine builds it (h = 0.004, gamma = 0.01,
/// eps = 0.3, lambda = 2): per mode the progress, bounded-step and two
/// curvature conditions with S-procedure multipliers on the mode domain
/// and the parameter set, plus the origin and coefficient-box rows. The
/// objective does not enter M and is left out.
Problem pll4_advection_sdp() {
  const pll::ReducedModel model = pll::make_averaged(pll::Params::paper_fourth_order());
  const hybrid::HybridSystem& system = model.system;
  const std::size_t nvars = system.nvars(), nstates = system.nstates();
  const Polynomial b_prev = ellipsoid(nvars, {6.0, 6.0, 6.0, 0.9});
  const double h = 0.004, gamma = 0.01, eps = 0.3, lambda = 2.0, kappa = 0.5 * gamma;
  const core::AdvectionOptions defaults;
  const unsigned deg = defaults.multiplier_degree;

  sos::SosProgram prog(nvars);
  const PolyLin b_next =
      prog.add_poly(core::state_monomials(nvars, nstates, defaults.set_degree, 0), "b");
  prog.add_linear_ge(-b_next.coefficient(poly::Monomial(nvars)) - poly::LinExpr(1e-3),
                     "origin inside");
  for (const auto& [m, coeff] : b_next.terms()) {
    prog.add_linear_ge(poly::LinExpr(defaults.coeff_cap) - coeff, "coeff cap+");
    prog.add_linear_ge(coeff + poly::LinExpr(defaults.coeff_cap), "coeff cap-");
  }
  const poly::MultiplierSparsity csp = sos::multiplier_plan(nvars, sdp::SolverConfig{});
  const hybrid::SemialgebraicSet& params = system.parameter_set();
  for (std::size_t q = 0; q < system.modes().size(); ++q) {
    const hybrid::Mode& mode = system.modes()[q];
    const std::string tag = "adv.m" + std::to_string(q);
    const PolyLin tb = b_next + h * b_next.lie_derivative(mode.flow);
    PolyLin r(nvars);
    for (std::size_t i = 0; i < nstates; ++i) {
      const PolyLin di = b_next.derivative(i);
      for (std::size_t k = 0; k < nstates; ++k) {
        const PolyLin dik = di.derivative(k);
        if (!dik.is_zero()) r += dik * (mode.flow[i] * mode.flow[k]);
      }
      const Polynomial fi_dot = mode.flow[i].lie_derivative(mode.flow);
      if (!fi_dot.is_zero()) r += di * fi_dot;
    }
    r *= 0.5 * h * h;
    auto condition = [&](PolyLin expr, const std::string& name) {
      core::subtract_multipliers(prog, expr, mode.domain, deg, tag + name + ".g", csp);
      core::subtract_multipliers(prog, expr, params, deg, tag + name + "u.g", csp);
      prog.add_sos_constraint(expr, tag + name);
    };
    const PolyLin sa = prog.add_sos_poly(deg, 0, tag + ".sa");
    condition(-tb - PolyLin(Polynomial::constant(nvars, gamma)) + sa * b_prev, ".A");
    condition(PolyLin(Polynomial::constant(nvars, eps) - b_prev) + lambda * tb -
                  PolyLin(Polynomial::constant(nvars, lambda * gamma)),
              ".B");
    for (const double sign : {-1.0, 1.0}) {
      const PolyLin sc = prog.add_sos_poly(deg, 0, tag + ".sc");
      condition(PolyLin(Polynomial::constant(nvars, kappa)) - sign * r -
                    sc * (Polynomial::constant(nvars, eps) - b_prev),
                ".C");
    }
  }
  return prog.compile();
}

TEST(SchurAssembly, MatchesPanelOracleOnPll4AdvectionSdp) {
  const Problem p = pll4_advection_sdp();
  const std::map<std::size_t, std::size_t> sizes = size_histogram(p);
  EXPECT_GT(sizes.count(20), 0u);
  EXPECT_GT(sizes.count(6), 0u);
  EXPECT_GT(sizes.count(1), 0u);
  EXPECT_GT(p.num_free(), 0u);
  expect_matches_panel_oracle(p, 11);
}

TEST(SchurAssembly, MatchesPanelOracleWithMultiplierGramsInSeveralRows) {
  // max c s.t. p - c - sum_k sigma_k g_k is SOS, on the box |x_i| <= 1: the
  // S-procedure multipliers' Gram entries each reach one row per monomial
  // of their g_k.
  const std::size_t nvars = 2;
  const Polynomial x0 = Polynomial::variable(nvars, 0), x1 = Polynomial::variable(nvars, 1);
  const Polynomial target = x0 * x0 * x0 * x0 - 2.0 * x0 * x1 + x1 * x1 * x1 + 0.5 * x1;
  sos::SosProgram prog(nvars);
  const poly::LinExpr c = prog.add_scalar("c");
  PolyLin expr(target);
  PolyLin cterm(nvars);
  cterm.add_term(poly::Monomial(nvars), c);
  expr -= cterm;
  const std::vector<Polynomial> box = {Polynomial::constant(nvars, 1.0) - x0 * x0,
                                       Polynomial::constant(nvars, 1.0) - x1 * x1,
                                       Polynomial::constant(nvars, 1.0) - x0 * x1};
  for (std::size_t k = 0; k < box.size(); ++k)
    expr -= prog.add_sos_poly(2, 0, "s" + std::to_string(k)) * box[k];
  prog.add_sos_constraint(expr, "bound");
  prog.maximize(c);
  const Problem p = prog.compile();
  ASSERT_TRUE(entry_in_several_rows(p));
  expect_matches_panel_oracle(p, 12);
}

TEST(SchurAssembly, MatchesPanelOracleOnChordalClockTreeWithOverlapRows) {
  pll::ClockTreeOptions tree;
  tree.loops = 16;
  tree.cluster = 4;
  tree.neighbor_coupling = 0.05;
  tree.neighbor_hops = tree.cluster - 1;
  const pll::ClockTreeModel model =
      pll::make_clock_tree(pll::Params::paper_third_order(), tree);
  sdp::LoweringOptions options;
  options.sparsity = sdp::SparsityOptions::Chordal;
  options.chordal.min_block_size = 4;
  const sdp::Lowering low =
      sdp::lower(pll::clock_tree_coupling_sdp(model.constants, tree), options);
  ASSERT_TRUE(low.decomposed());
  ASSERT_GT(low.problem.num_rows(), low.map.original_rows);  // the overlap rows
  expect_matches_panel_oracle(low.problem, 13);
}

}  // namespace
}  // namespace soslock
