// Tests for the sparsity subsystem: chordal-graph machinery (util/chordal),
// correlative-sparsity Gram clique splitting (poly/sparsity), csp-restricted
// multiplier bases, the SDP-level chordal conversion pass (sdp/chordal), and
// the end-to-end guarantees — recombined clique certificates equal the dense
// ones, soundness verdicts match the dense path, and structure fingerprints
// separate dense and correlative compiles so stale warm blobs are rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/lyapunov.hpp"
#include "linalg/eigen_sym.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "poly/sparsity.hpp"
#include "sdp/chordal.hpp"
#include "sdp/ipm.hpp"
#include "sdp/solver.hpp"
#include "sdp/structure.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"
#include "util/chordal.hpp"

namespace soslock {
namespace {

using linalg::Matrix;
using poly::Monomial;
using poly::Polynomial;

util::Adjacency make_adj(std::size_t n, const std::vector<std::pair<int, int>>& edges) {
  util::Adjacency adj(n, std::vector<bool>(n, false));
  for (const auto& [a, b] : edges) {
    adj[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
    adj[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = true;
  }
  return adj;
}

/// Running-intersection property of a clique forest: every clique's overlap
/// with the union of its predecessors lies inside its parent.
void expect_rip(const util::CliqueForest& forest) {
  std::vector<bool> seen;
  for (std::size_t k = 0; k < forest.cliques.size(); ++k) {
    ASSERT_LE(forest.parent[k], k);  // preorder: parents come first (or self)
    for (const std::size_t v : forest.cliques[k]) {
      if (v >= seen.size()) seen.resize(v + 1, false);
    }
  }
  std::vector<bool> placed(seen.size(), false);
  for (std::size_t k = 0; k < forest.cliques.size(); ++k) {
    const auto& parent = forest.cliques[forest.parent[k]];
    for (const std::size_t v : forest.cliques[k]) {
      if (placed[v]) {
        EXPECT_TRUE(std::binary_search(parent.begin(), parent.end(), v))
            << "RIP violated: vertex " << v << " of clique " << k
            << " seen before but not in parent";
      }
    }
    for (const std::size_t v : forest.cliques[k]) placed[v] = true;
  }
}

TEST(ChordalCliques, PathGraphSplitsIntoEdges) {
  // 0-1-2-3 is already chordal; maximal cliques are the edges.
  const auto forest = util::chordal_cliques(4, make_adj(4, {{0, 1}, {1, 2}, {2, 3}}));
  EXPECT_EQ(forest.cliques.size(), 3u);
  EXPECT_EQ(forest.max_clique_size(), 2u);
  EXPECT_TRUE(forest.covers(4));
  expect_rip(forest);
}

TEST(ChordalCliques, CycleGetsFillIn) {
  // 4-cycle: one fill edge -> two triangles.
  const auto forest =
      util::chordal_cliques(4, make_adj(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  EXPECT_EQ(forest.cliques.size(), 2u);
  EXPECT_EQ(forest.max_clique_size(), 3u);
  EXPECT_TRUE(forest.covers(4));
  expect_rip(forest);
}

TEST(ChordalCliques, IsolatedVerticesBecomeSingletons) {
  const auto forest = util::chordal_cliques(3, make_adj(3, {{0, 1}}));
  EXPECT_EQ(forest.cliques.size(), 2u);
  EXPECT_TRUE(forest.covers(3));
  expect_rip(forest);
}

TEST(ChordalCliques, CompleteGraphIsOneClique) {
  const auto forest =
      util::chordal_cliques(3, make_adj(3, {{0, 1}, {0, 2}, {1, 2}}));
  ASSERT_EQ(forest.cliques.size(), 1u);
  EXPECT_EQ(forest.cliques[0], (std::vector<std::size_t>{0, 1, 2}));
}

// --- correlative Gram split ------------------------------------------------

Polynomial disjoint_pair_quartic() {
  // (x0^2 + x1^2)^2 + (x2^2 + x3^2)^2: csp cliques {0,1} and {2,3}.
  const Polynomial x0 = Polynomial::variable(4, 0), x1 = Polynomial::variable(4, 1);
  const Polynomial x2 = Polynomial::variable(4, 2), x3 = Polynomial::variable(4, 3);
  const Polynomial a = x0 * x0 + x1 * x1;
  const Polynomial b = x2 * x2 + x3 * x3;
  return a * a + b * b;
}

TEST(GramCliqueSplit, DisjointQuarticSplitsInTwo) {
  const Polynomial p = disjoint_pair_quartic();
  const poly::GramCliqueSplit split =
      poly::split_gram_basis(4, poly::support_info(p), poly::GramPrune::Newton);
  ASSERT_EQ(split.bases.size(), 2u);
  EXPECT_LT(split.max_basis_size(), split.dense_size);
  for (const auto& basis : split.bases) EXPECT_EQ(basis.size(), 3u);  // {xi^2, xi xj, xj^2}
}

TEST(GramCliqueSplit, DenseSupportFallsBackToSingleClique) {
  // x0^2 x1^2 couples everything: single clique == dense basis.
  const Polynomial x0 = Polynomial::variable(2, 0), x1 = Polynomial::variable(2, 1);
  const Polynomial p = x0 * x0 * x1 * x1 + x0 * x0 + x1 * x1;
  const poly::GramCliqueSplit split =
      poly::split_gram_basis(2, poly::support_info(p), poly::GramPrune::Newton);
  EXPECT_TRUE(split.trivial());
  EXPECT_EQ(split.max_basis_size(), split.dense_size);
}

TEST(MultiplierSparsity, DropsDataInactiveVariables) {
  // Data couples {0,1,2}; variable 3 is inactive -> multipliers of a
  // state-constraint never see it, a parameter-only constraint gets a
  // univariate basis.
  poly::MultiplierSparsity csp(4, true);
  Polynomial v(4);
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j)
      v += Polynomial::variable(4, static_cast<std::size_t>(i)) *
           Polynomial::variable(4, static_cast<std::size_t>(j));
  csp.couple(v);
  const Polynomial g_state = Polynomial::variable(4, 0) + Polynomial::constant(4, 8.0);
  const auto basis = csp.multiplier_basis(g_state, 2);
  EXPECT_EQ(basis.size(), 4u);  // {1, x0, x1, x2}; dense would be 5
  for (const Monomial& m : basis) EXPECT_EQ(m.exponent(3), 0u);

  const Polynomial g_param = Polynomial::variable(4, 3) + Polynomial::constant(4, 1.0);
  EXPECT_EQ(csp.multiplier_basis(g_param, 2).size(), 2u);  // {1, x3}

  poly::MultiplierSparsity off(4, false);
  EXPECT_EQ(off.multiplier_basis(g_state, 2).size(), 5u);
}

// --- end-to-end: sparse SOS solves ----------------------------------------

TEST(SparseSos, RecombinedCliqueCertificateEqualsDense) {
  const Polynomial p = disjoint_pair_quartic();
  sdp::SolverConfig config;
  config.backend = "ipm";

  sos::SosProgram dense(4);
  dense.set_trace_regularization(1e-8);
  dense.add_sos_constraint(p, "p");
  const sos::SolveResult dense_result = dense.solve(config);
  ASSERT_TRUE(dense_result.feasible);
  ASSERT_TRUE(sos::audit(dense, dense_result).ok);

  sos::SosProgram sparse(4);
  sparse.set_trace_regularization(1e-8);
  sparse.set_correlative_sparsity(true);
  sparse.add_sos_constraint(p, "p");
  ASSERT_EQ(sparse.gram_blocks().size(), 2u);  // one block per clique
  const sos::SolveResult sparse_result = sparse.solve(config);
  ASSERT_TRUE(sparse_result.feasible);
  ASSERT_TRUE(sos::audit(sparse, sparse_result).ok);

  // The recombined clique certificate is a dense PSD Gram representing the
  // same polynomial as the dense certificate (p itself).
  const sos::GramCertificate combined = sos::recombine_cliques(sparse_result.grams);
  ASSERT_EQ(combined.gram.rows(), combined.basis.size());
  EXPECT_GE(linalg::min_eigenvalue(combined.gram), -1e-8);
  const Polynomial recombined_poly = combined.polynomial(4);
  const Polynomial dense_poly = dense_result.grams.front().polynomial(4);
  const Polynomial diff = recombined_poly - dense_poly;
  EXPECT_LE(diff.coeff_norm_inf(), 1e-5 * std::max(1.0, p.coeff_norm_inf()));
  // And both reproduce p.
  EXPECT_LE((recombined_poly - p).coeff_norm_inf(), 1e-5 * p.coeff_norm_inf());
}

TEST(SparseSos, MotzkinAdjacentVerdictsMatchDense) {
  // Motzkin is not SOS: the sparse path must agree (no false positives), and
  // the SOS-able companion (x^2+y^2+1)*Motzkin must stay verifiable.
  const Polynomial x = Polynomial::variable(2, 0), y = Polynomial::variable(2, 1);
  const Polynomial motzkin =
      x.pow(4) * y * y + x * x * y.pow(4) - 3.0 * x * x * y * y + Polynomial::constant(2, 1.0);

  for (const Polynomial& p : {motzkin, (x * x + y * y + 1.0) * motzkin}) {
    sdp::SolverConfig config;
    config.backend = "ipm";
    bool verdict[2];
    int slot = 0;
    for (const bool correlative : {false, true}) {
      sos::SosProgram prog(2);
      prog.set_trace_regularization(1e-8);
      prog.set_correlative_sparsity(correlative);
      prog.add_sos_constraint(p, "p");
      const sos::SolveResult result = prog.solve(config);
      verdict[slot++] = result.feasible && sos::audit(prog, result).ok;
    }
    EXPECT_EQ(verdict[0], verdict[1]) << "sparse verdict diverged on " << p.str();
  }
}

TEST(SparseSos, BaseSpaceBlobsCrossCompatibleModesAndRejectForeignOnes) {
  // Warm blobs live in the base (pre-lowering) space. Dense and correlative
  // compiles have different Gram blocks (one dense block vs one per clique),
  // so they separate naturally through the compiled structure fingerprint:
  // a stale blob from one can never leak into the other, while a blob
  // replays warm into any program that compiles the same blocks.
  const Polynomial p = disjoint_pair_quartic();
  sdp::SolverConfig config;
  config.backend = "ipm";
  auto build = [&p](bool correlative) {
    sos::SosProgram prog(4);
    prog.set_trace_regularization(1e-8);
    prog.set_correlative_sparsity(correlative);
    prog.add_sos_constraint(p, "p");
    return prog;
  };
  std::vector<sos::SolveResult> results;
  for (const bool correlative : {false, true}) {
    results.push_back(build(correlative).solve(config));
    ASSERT_TRUE(results.back().feasible);
    ASSERT_FALSE(results.back().warm.empty());
  }
  EXPECT_NE(results[0].warm.fingerprint, results[1].warm.fingerprint);

  // Replaying the dense blob into a correlative solve is rejected: the
  // solve runs cold and still succeeds.
  const sos::SosProgram sparse = build(true);
  const sos::SolveResult cold = sparse.solve(config);
  const sos::SolveResult replay = sparse.solve(config, &results[0].warm);
  EXPECT_TRUE(replay.feasible);
  EXPECT_EQ(replay.sdp.iterations, cold.sdp.iterations);  // identical cold solve

  // And the correlative blob replays *warm* into a rebuilt correlative
  // program.
  const sos::SolveResult cross = build(true).solve(config, &results[1].warm);
  EXPECT_TRUE(cross.feasible);
  EXPECT_LT(cross.sdp.iterations, cold.sdp.iterations);
}

// --- SDP-level chordal conversion -----------------------------------------

/// Feasible banded min-trace SDP: b = A(X*) for a banded PSD X* and banded
/// coefficients, so the aggregate pattern is a path-like band.
sdp::Problem banded_sdp(std::size_t n) {
  sdp::Problem p;
  const std::size_t blk = p.add_block(n);
  p.set_block_objective(blk, sdp::SparseSym::diagonal(n, 1.0));
  // X* = tridiagonal diagonally-dominant PSD matrix.
  Matrix xstar(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    xstar(i, i) = 2.0 + 0.1 * static_cast<double>(i % 3);
    if (i + 1 < n) {
      xstar(i, i + 1) = 0.7;
      xstar(i + 1, i) = 0.7;
    }
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sdp::Row row;
    sdp::SparseSym a;
    a.add(i, i, 1.0);
    a.add(i, i + 1, 0.5 + 0.1 * static_cast<double>(i % 2));
    a.add(i + 1, i + 1, -0.3);
    Matrix dense(n, n);
    a.add_to(dense);
    row.rhs = linalg::dot(dense, xstar);
    row.blocks[blk] = std::move(a);
    p.add_row(std::move(row));
  }
  return p;
}

TEST(ChordalConversion, BandedBlockDecomposesAndRecovers) {
  const std::size_t n = 30;
  sdp::Problem dense_problem = banded_sdp(n);
  const sdp::Solution dense_sol = sdp::IpmSolver().solve(dense_problem);
  ASSERT_EQ(dense_sol.status, sdp::SolveStatus::Optimal);

  sdp::Problem converted = banded_sdp(n);
  sdp::ChordalOptions options;
  options.min_block_size = 8;
  const sdp::ChordalMap map = sdp::chordal_decompose(converted, options);
  ASSERT_FALSE(map.identity());
  EXPECT_LT(map.max_clique_size(), n);
  std::size_t max_converted = 0;
  for (std::size_t j = 0; j < converted.num_blocks(); ++j)
    max_converted = std::max(max_converted, converted.block_size(j));
  EXPECT_LT(max_converted, n);  // the cone genuinely shrank

  const sdp::Solution conv_sol = sdp::IpmSolver().solve(converted);
  ASSERT_EQ(conv_sol.status, sdp::SolveStatus::Optimal);
  // The conversion is exact: optimal values agree.
  EXPECT_NEAR(conv_sol.primal_objective, dense_sol.primal_objective,
              1e-5 * (1.0 + std::fabs(dense_sol.primal_objective)));

  // Recovery: dense-shaped solution, PSD (completion), primal feasible.
  const sdp::Solution recovered = sdp::recover_original(conv_sol, map);
  ASSERT_EQ(recovered.x.size(), 1u);
  ASSERT_EQ(recovered.x[0].rows(), n);
  ASSERT_EQ(recovered.y.size(), dense_problem.num_rows());
  EXPECT_GE(linalg::min_eigenvalue(recovered.x[0]), -1e-7);
  EXPECT_GE(linalg::min_eigenvalue(recovered.z[0]), -1e-7);
  for (std::size_t i = 0; i < dense_problem.num_rows(); ++i) {
    double ax = 0.0;
    for (const auto& [j, a] : dense_problem.rows()[i].blocks)
      ax += a.dot(recovered.x[j]);
    EXPECT_NEAR(ax, dense_problem.rhs(i), 1e-5 * (1.0 + std::fabs(dense_problem.rhs(i))));
  }
  // Dual slack identity Z = C - sum_i y_i A_i holds for the recovered pair.
  Matrix slack(n, n);
  dense_problem.block_objective(0).add_to(slack);
  for (std::size_t i = 0; i < dense_problem.num_rows(); ++i)
    dense_problem.rows()[i].blocks.at(0).add_to(slack, -recovered.y[i]);
  slack -= recovered.z[0];
  EXPECT_LE(linalg::norm_inf(slack), 1e-6);
}

TEST(ChordalConversion, SmallAndDenseBlocksAreLeftAlone) {
  sdp::Problem small = banded_sdp(6);
  const std::uint64_t before = sdp::structure_fingerprint(small);
  const sdp::ChordalMap map = sdp::chordal_decompose(small, {});
  EXPECT_TRUE(map.identity());
  EXPECT_EQ(sdp::structure_fingerprint(small), before);  // untouched
}

// --- pipeline-level: pump-vertex Lyapunov dense vs correlative ------------

TEST(SparsePipeline, PumpVertexLyapunovVerdictsMatchDense) {
  const pll::ReducedModel model =
      pll::make_averaged_vertices(pll::Params::paper_third_order());
  core::LyapunovOptions base;
  base.certificate_degree = 2;
  base.flow_decrease = core::FlowDecrease::Strict;
  base.strict_margin = 1e-4;
  base.maximize_region = true;

  core::LyapunovOptions dense_opt = base;
  const core::LyapunovResult dense = core::LyapunovSynthesizer(dense_opt).synthesize(model.system);

  sdp::SolverConfig correlative;
  correlative.correlative_sparsity = true;
  const core::LyapunovResult sparse =
      core::LyapunovSynthesizer(base, correlative).synthesize(model.system);

  EXPECT_EQ(dense.success, sparse.success);
  if (dense.success) {
    EXPECT_TRUE(sparse.audit.ok);
    ASSERT_EQ(dense.certificates.size(), sparse.certificates.size());
  }
}

// --- clock-tree cascade: the first genuinely non-complete Lyapunov csp ----

TEST(SparsePipeline, ClockTreeSparseTemplateSplitsConesAndMatchesDenseVerdict) {
  pll::ClockTreeOptions tree;
  tree.loops = 3;
  const pll::ClockTreeModel model =
      pll::make_clock_tree(pll::Params::paper_third_order(), tree);
  ASSERT_EQ(model.system.nstates(), 7u);

  core::LyapunovOptions base;
  base.certificate_degree = 2;
  base.flow_decrease = core::FlowDecrease::Strict;
  base.strict_margin = 1e-5;

  core::LyapunovOptions dense_opt = base;
  const core::LyapunovResult dense =
      core::LyapunovSynthesizer(dense_opt).synthesize(model.system);
  ASSERT_TRUE(dense.success);

  core::LyapunovOptions sparse_opt = base;
  sparse_opt.sparse_template = true;
  sdp::SolverConfig correlative;
  correlative.correlative_sparsity = true;
  const core::LyapunovResult sparse =
      core::LyapunovSynthesizer(sparse_opt, correlative).synthesize(model.system);
  EXPECT_TRUE(sparse.success);
  EXPECT_TRUE(sparse.audit.ok);

  // The clique-structured template keeps -V̇'s csp graph non-complete, so
  // the correlative split hands the backend genuinely smaller cones.
  EXPECT_LT(sparse.solver.max_cone, dense.solver.max_cone);

  // The sparse template really is sparse: fewer monomials than the dense
  // state template, and restricted to the flow-coupling cliques.
  const auto dense_support = core::state_monomials(7, 7, 2, 2);
  const auto sparse_support = core::sparse_state_monomials(model.system, 2, 2);
  EXPECT_LT(sparse_support.size(), dense_support.size());
}

}  // namespace
}  // namespace soslock
