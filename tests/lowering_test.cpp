// Tests for the staged SOS→SDP lowering pipeline (sdp/lowering) and native
// decomposed cones in the backends: pass provenance, native-vs-seam verdict
// parity on banded SDPs and the clock-tree coupling model (the seam being a
// test-only lowering with the overlap couplings as equality rows), the
// Schur-complement geometry claim (zero overlap rows in the factored
// system; one overlap elimination per Schur block on independent cones),
// base-space warm blobs surviving min_block_size changes via per-clique
// remapping, the drift guard on stale canonical entry maps, the canonical
// entry index against a clique scan, and the ADMM on the clustered clock
// tree the clock_tree benchmark runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/eigen_sym.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "sdp/admm.hpp"
#include "sdp/ipm.hpp"
#include "sdp/lowering.hpp"
#include "sdp/solver.hpp"
#include "sdp/structure.hpp"

namespace soslock {
namespace {

using linalg::Matrix;
using sdp::Lowering;
using sdp::LoweringOptions;
using sdp::Problem;
using sdp::Solution;
using sdp::SolveStatus;

/// Feasible banded min-trace SDP: b = A(X*) for a banded PSD X* and banded
/// coefficients, so the aggregate pattern is a path-like band. `scale`
/// perturbs every coefficient value without touching a single position
/// (structurally identical problems for the LoweringCache tests);
/// `drop_entry` zeroes one off-diagonal coefficient — SparseSym::add drops
/// exact zeros, so the triplet set itself (and the fingerprint) changes.
Problem banded_sdp(std::size_t n, double scale = 1.0, bool drop_entry = false) {
  Problem p;
  const std::size_t blk = p.add_block(n);
  p.set_block_objective(blk, sdp::SparseSym::diagonal(n, 1.0));
  Matrix xstar(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    xstar(i, i) = scale * (2.0 + 0.1 * static_cast<double>(i % 3));
    if (i + 1 < n) {
      xstar(i, i + 1) = 0.7 * scale;
      xstar(i + 1, i) = 0.7 * scale;
    }
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sdp::Row row;
    sdp::SparseSym a;
    a.add(i, i, scale);
    a.add(i, i + 1,
          i == 0 && drop_entry ? 0.0 : scale * (0.5 + 0.1 * static_cast<double>(i % 2)));
    a.add(i + 1, i + 1, -0.3 * scale);
    Matrix dense(n, n);
    a.add_to(dense);
    row.rhs = linalg::dot(dense, xstar);
    row.blocks[blk] = std::move(a);
    p.add_row(std::move(row));
  }
  return p;
}

Problem clock_tree_sdp(std::size_t loops) {
  pll::ClockTreeOptions options;
  options.loops = loops;
  const pll::ClockTreeModel model =
      pll::make_clock_tree(pll::Params::paper_third_order(), options);
  return pll::clock_tree_coupling_sdp(model.constants, options);
}

LoweringOptions chordal_lowering(std::size_t min_block_size) {
  LoweringOptions low;
  low.sparsity = sdp::SparsityOptions::Chordal;
  low.chordal.min_block_size = min_block_size;
  return low;
}

/// The seam conversion, as a parity oracle: every cone's overlap couplings
/// become ordinary equality rows after the original ones, and the cones go.
/// The backends then see a plain block SDP whose Schur complement carries
/// the overlap rows; sdp::recover drops their multipliers again.
Lowering seam_of(Lowering low) {
  for (const sdp::DecomposedCone& cone : low.problem.cones())
    for (const sdp::Row& row : cone.overlaps) low.problem.add_row(row);
  low.problem.mutable_cones().clear();
  low.lowered_fingerprint = sdp::structure_fingerprint(low.problem);
  return low;
}

/// Primal feasibility of a recovered solution against the original problem.
double primal_violation(const Problem& original, const Solution& recovered) {
  double worst = 0.0;
  for (std::size_t i = 0; i < original.num_rows(); ++i) {
    double ax = 0.0;
    for (const auto& [j, a] : original.rows()[i].blocks) ax += a.dot(recovered.x[j]);
    for (const auto& [v, c] : original.rows()[i].free_coeffs) ax += c * recovered.w[v];
    worst = std::max(worst, std::fabs(original.rhs(i) - ax) /
                                (1.0 + std::fabs(original.rhs(i))));
  }
  return worst;
}

TEST(LoweringPipeline, PassesRecordProvenanceAndSeedTheCache) {
  const Lowering low = sdp::lower(banded_sdp(30), chordal_lowering(8));
  ASSERT_TRUE(low.decomposed());
  ASSERT_EQ(low.passes.size(), 4u);
  EXPECT_EQ(low.passes[0].name, "analyze");
  EXPECT_EQ(low.passes[1].name, "decompose");
  EXPECT_EQ(low.passes[2].name, "lower");
  EXPECT_EQ(low.passes[3].name, "equilibrate");
  EXPECT_EQ(low.passes[0].fingerprint, low.base_fingerprint);
  EXPECT_EQ(low.passes[3].fingerprint, low.lowered_fingerprint);
  EXPECT_NE(low.base_fingerprint, low.lowered_fingerprint);
  EXPECT_GT(low.convert_seconds, 0.0);

  // The seeded cache entry carries the provenance to the backends.
  const auto structure = sdp::StructureCache::global().get(low.problem);
  EXPECT_EQ(structure->base_fingerprint, low.base_fingerprint);
  ASSERT_EQ(structure->provenance.size(), 4u);
  EXPECT_EQ(structure->provenance[2].name, "lower");
}

TEST(LoweringPipeline, NativeLoweringAddsConesNotRows) {
  const Problem original = banded_sdp(30);
  const Lowering native = sdp::lower(banded_sdp(30), chordal_lowering(8));
  const Lowering seam = seam_of(native);
  ASSERT_TRUE(native.decomposed());
  ASSERT_TRUE(seam.decomposed());

  // Native: original row count, overlap couplings on the cone. Seam: the
  // couplings are rows.
  EXPECT_EQ(native.problem.num_rows(), original.num_rows());
  EXPECT_GT(native.problem.num_overlaps(), 0u);
  EXPECT_FALSE(native.problem.cones().empty());
  EXPECT_EQ(seam.problem.num_rows(), original.num_rows() + native.problem.num_overlaps());
  EXPECT_EQ(seam.problem.num_overlaps(), 0u);

  // The two lowerings share the base space but are distinct structures.
  EXPECT_EQ(native.base_fingerprint, seam.base_fingerprint);
  EXPECT_NE(native.lowered_fingerprint, seam.lowered_fingerprint);
}

TEST(LoweringPipeline, NativeVsSeamVerdictParityOnBandedAndClockTree) {
  struct Case {
    const char* name;
    Problem problem;
    std::size_t min_block_size;
  };
  std::vector<Case> cases;
  cases.push_back({"banded", banded_sdp(30), 8});
  cases.push_back({"clock-tree", clock_tree_sdp(8), 4});

  for (Case& c : cases) {
    const Solution dense_sol = sdp::IpmSolver().solve(c.problem);
    ASSERT_EQ(dense_sol.status, SolveStatus::Optimal) << c.name;

    Solution recovered[2];
    std::size_t schur_rows[2];
    int slot = 0;
    for (const bool seam : {false, true}) {
      Lowering low = sdp::lower(c.problem, chordal_lowering(c.min_block_size));
      if (seam) low = seam_of(std::move(low));
      ASSERT_TRUE(low.decomposed()) << c.name;
      sdp::SolveContext context;
      const Solution sol = sdp::IpmSolver().solve(low.problem, context);
      schur_rows[slot] = sol.schur_rows;
      recovered[slot] = sdp::recover(sol, low);
      ++slot;
    }
    // Audit-identical verdicts: same status, same objective, both recover a
    // primal-feasible PSD iterate and both match the dense solve.
    EXPECT_EQ(recovered[0].status, recovered[1].status) << c.name;
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(recovered[i].status, SolveStatus::Optimal) << c.name;
      EXPECT_NEAR(recovered[i].primal_objective, dense_sol.primal_objective,
                  1e-4 * (1.0 + std::fabs(dense_sol.primal_objective)))
          << c.name;
      EXPECT_GE(linalg::min_eigenvalue(recovered[i].x[0]), -1e-6) << c.name;
      EXPECT_LT(primal_violation(c.problem, recovered[i]), 1e-5) << c.name;
      // The convert/complete phases of the lowering round trip are stamped.
      EXPECT_GT(recovered[i].phase.convert, 0.0) << c.name;
      EXPECT_GT(recovered[i].phase.complete, 0.0) << c.name;
    }
    // Zero overlap-consistency rows in the native Schur complement: the
    // factored system keeps the original row count, while the seam carries
    // one extra row per overlap entry.
    EXPECT_EQ(schur_rows[0], c.problem.num_rows()) << c.name;
    EXPECT_GT(schur_rows[1], schur_rows[0]) << c.name;
  }
}

/// Two problems as one: b's blocks follow a's and its rows refer to them,
/// so no row touches both halves.
Problem side_by_side(const Problem& a, const Problem& b) {
  Problem p;
  for (const Problem* part : {&a, &b}) {
    const std::size_t base = p.num_blocks();
    for (std::size_t j = 0; j < part->num_blocks(); ++j)
      p.set_block_objective(p.add_block(part->block_size(j)), part->block_objective(j));
    for (const sdp::Row& r : part->rows()) {
      sdp::Row row;
      row.rhs = r.rhs;
      for (const auto& [j, coeff] : r.blocks) row.blocks[base + j] = coeff;
      p.add_row(std::move(row));
    }
  }
  return p;
}

// Two independent banded SDPs lowered chordally give two decomposed cones
// whose rows and overlap couplings never meet: the IPM's Schur complement
// is two blocks, each with its own overlap corner to eliminate. The
// recovered optimum must match the undecomposed solve, and the factored
// rows still sum to the original row count.
TEST(LoweringPipeline, IpmEliminatesOverlapsPerSchurBlock) {
  const Problem original = side_by_side(banded_sdp(30), banded_sdp(24, 1.3));
  const Solution dense_sol = sdp::IpmSolver().solve(original);
  ASSERT_EQ(dense_sol.status, SolveStatus::Optimal);

  const Lowering low = sdp::lower(original, chordal_lowering(8));
  ASSERT_TRUE(low.decomposed());
  ASSERT_EQ(low.problem.cones().size(), 2u);
  for (const sdp::DecomposedCone& cone : low.problem.cones())
    EXPECT_FALSE(cone.overlaps.empty());
  sdp::SolveContext context;
  const Solution sol = sdp::IpmSolver().solve(low.problem, context);
  EXPECT_EQ(sol.schur_rows, original.num_rows());
  const Solution recovered = sdp::recover(sol, low);
  ASSERT_EQ(recovered.status, SolveStatus::Optimal);
  EXPECT_NEAR(recovered.primal_objective, dense_sol.primal_objective,
              1e-6 * (1.0 + std::fabs(dense_sol.primal_objective)));
  EXPECT_LT(primal_violation(original, recovered), 1e-6);
  for (const Matrix& x : recovered.x) EXPECT_GE(linalg::min_eigenvalue(x), -1e-6);
}

TEST(LoweringPipeline, AdmmSolvesNativeConesWithSeamParity) {
  const Problem original = clock_tree_sdp(6);
  const Solution dense_sol = sdp::AdmmSolver().solve(original);
  ASSERT_EQ(dense_sol.status, SolveStatus::Optimal);

  Solution recovered[2];
  for (const bool seam : {false, true}) {
    Lowering low = sdp::lower(original, chordal_lowering(4));
    if (seam) low = seam_of(std::move(low));
    ASSERT_TRUE(low.decomposed());
    sdp::SolveContext context;
    const Solution sol = sdp::AdmmSolver().solve(low.problem, context);
    EXPECT_EQ(sol.schur_rows, seam ? low.problem.num_rows() : original.num_rows());
    recovered[seam ? 1 : 0] = sdp::recover(sol, low);
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(recovered[i].status, SolveStatus::Optimal) << i;
    EXPECT_NEAR(recovered[i].primal_objective, dense_sol.primal_objective,
                1e-3 * (1.0 + std::fabs(dense_sol.primal_objective)))
        << i;
    EXPECT_LT(primal_violation(original, recovered[i]), 1e-4) << i;
  }
}

TEST(LoweringPipeline, RecoverKeepsResilienceTelemetry) {
  // A decomposed solve that needed a retry or fallback must still report it
  // after the round trip back to the original shape.
  const Lowering low = sdp::lower(banded_sdp(30), chordal_lowering(8));
  ASSERT_TRUE(low.decomposed());
  sdp::SolveContext ctx;
  Solution sol = sdp::IpmSolver().solve(low.problem, ctx);
  sdp::RecoveryRecord record;
  record.action = "retry";
  record.reason = "Diverged(phase=primal-residual)";
  sol.recoveries.push_back(record);
  sol.faulted_phase = "primal-residual";

  const Solution recovered = sdp::recover(sol, low);
  ASSERT_EQ(recovered.recoveries.size(), 1u);
  EXPECT_EQ(recovered.recoveries[0].action, "retry");
  EXPECT_EQ(recovered.recoveries[0].reason, record.reason);
  EXPECT_EQ(recovered.faulted_phase, "primal-residual");
  EXPECT_EQ(recovered.x.size(), 1u);
}

TEST(LoweringPipeline, WarmStartSurvivesMinBlockSizeChange) {
  // The acceptance claim: a blob exported under one decomposition replays
  // into a different one (here: decomposed vs not decomposed at all, the
  // most extreme min_block_size change) with fewer iterations than cold.
  const Problem original = clock_tree_sdp(8);

  // Solve decomposed (min_block_size 4), export a base-space blob.
  const Lowering low_a = sdp::lower(original, chordal_lowering(4));
  ASSERT_TRUE(low_a.decomposed());
  sdp::SolveContext ctx_a;
  const Solution sol_a = sdp::IpmSolver().solve(low_a.problem, ctx_a);
  ASSERT_EQ(sol_a.status, SolveStatus::Optimal);
  const sdp::WarmStart blob = sdp::export_warm_start(sdp::recover(sol_a, low_a), low_a);
  EXPECT_EQ(blob.fingerprint, low_a.base_fingerprint);

  // Replay into a min_block_size that disables the decomposition entirely.
  const Lowering low_b = sdp::lower(original, chordal_lowering(100));
  ASSERT_FALSE(low_b.decomposed());
  ASSERT_EQ(low_b.base_fingerprint, low_a.base_fingerprint);
  const sdp::WarmStart remapped_b = sdp::remap_warm_start(blob, low_b);
  ASSERT_FALSE(remapped_b.empty());
  sdp::SolveContext cold_ctx, warm_ctx;
  warm_ctx.warm_start = &remapped_b;
  const Solution cold_b = sdp::IpmSolver().solve(low_b.problem, cold_ctx);
  const Solution warm_b = sdp::IpmSolver().solve(low_b.problem, warm_ctx);
  ASSERT_EQ(warm_b.status, SolveStatus::Optimal);
  EXPECT_LT(warm_b.iterations, cold_b.iterations);

  // And the reverse direction: the undecomposed solve's blob re-lowers per
  // clique into a *different* decomposition (min_block_size 6).
  const sdp::WarmStart blob_b = sdp::export_warm_start(sdp::recover(warm_b, low_b), low_b);
  const Lowering low_c = sdp::lower(original, chordal_lowering(6));
  ASSERT_TRUE(low_c.decomposed());
  const sdp::WarmStart remapped_c = sdp::remap_warm_start(blob_b, low_c);
  ASSERT_FALSE(remapped_c.empty());
  sdp::SolveContext cold_c_ctx, warm_c_ctx;
  warm_c_ctx.warm_start = &remapped_c;
  const Solution cold_c = sdp::IpmSolver().solve(low_c.problem, cold_c_ctx);
  const Solution warm_c = sdp::IpmSolver().solve(low_c.problem, warm_c_ctx);
  ASSERT_EQ(warm_c.status, SolveStatus::Optimal);
  EXPECT_LT(warm_c.iterations, cold_c.iterations);
}

TEST(LoweringPipeline, DriftGuardRejectsStaleCliqueEntryMaps) {
  // Mirrors the PR 3 fingerprint-collision fix at the remap layer: a blob
  // whose fingerprint matches but whose shape (or the map's canonical entry
  // lists) drifted must reject to a cold start, never scatter out-of-range.
  const Problem original = banded_sdp(30);
  const Lowering low = sdp::lower(original, chordal_lowering(8));
  ASSERT_TRUE(low.decomposed());
  sdp::SolveContext ctx;
  const Solution sol = sdp::IpmSolver().solve(low.problem, ctx);
  const sdp::WarmStart good = sdp::export_warm_start(sdp::recover(sol, low), low);
  ASSERT_FALSE(sdp::remap_warm_start(good, low).empty());

  // Blob block shape drifted (same fingerprint field, wrong matrix sizes).
  sdp::WarmStart shrunk = good;
  shrunk.x[0] = Matrix(10, 10);
  shrunk.z[0] = Matrix(10, 10);
  EXPECT_TRUE(sdp::remap_warm_start(shrunk, low).empty());

  // Right row count, wrong column count: the per-clique restriction would
  // read past the block, and the identity map would copy it to the backend.
  sdp::WarmStart narrow = good;
  narrow.x[0] = Matrix(30, 1);
  EXPECT_TRUE(sdp::remap_warm_start(narrow, low).empty());
  const Lowering identity = sdp::lower(original, LoweringOptions{});
  ASSERT_FALSE(identity.decomposed());
  ASSERT_FALSE(sdp::remap_warm_start(good, identity).empty());
  narrow = good;
  narrow.z[0] = Matrix(30, 1);
  EXPECT_TRUE(sdp::remap_warm_start(narrow, identity).empty());

  // Blob row space drifted.
  sdp::WarmStart wrong_rows = good;
  wrong_rows.y.push_back(0.0);
  EXPECT_TRUE(sdp::remap_warm_start(wrong_rows, low).empty());

  // Canonical entry map drifted: a clique vertex beyond the original block.
  Lowering tampered = low;
  ASSERT_FALSE(tampered.map.plans.empty());
  tampered.map.plans[0].forest.cliques[0][0] = 999;
  EXPECT_TRUE(sdp::remap_warm_start(good, tampered).empty());
}

TEST(LoweringPipeline, AdmmSolvesClusteredClockTreeDeterministically) {
  // The clock_tree benchmark shape at K=16: disjoint crosstalk clusters of 4
  // loops, so each cluster's filter nodes form one clique tied to the rest
  // of the tree by the rail alone.
  pll::ClockTreeOptions tree;
  tree.loops = 16;
  tree.cluster = 4;
  tree.neighbor_coupling = 0.05;
  tree.neighbor_hops = tree.cluster - 1;
  const pll::ClockTreeModel model =
      pll::make_clock_tree(pll::Params::paper_third_order(), tree);
  const Problem original = pll::clock_tree_coupling_sdp(model.constants, tree);
  const Solution ipm = sdp::IpmSolver().solve(original);
  ASSERT_EQ(ipm.status, SolveStatus::Optimal);

  const Lowering low = sdp::lower(original, chordal_lowering(4));
  ASSERT_TRUE(low.decomposed());
  sdp::AdmmOptions options;
  options.tolerance = 1e-5;
  sdp::SolveContext ctx1, ctx2;
  const Solution one = sdp::AdmmSolver(options, 1).solve(low.problem, ctx1);
  const Solution two = sdp::AdmmSolver(options, 2).solve(low.problem, ctx2);
  ASSERT_EQ(one.status, SolveStatus::Optimal);
  ASSERT_EQ(two.status, SolveStatus::Optimal);
  // Iteration-count gate: 385 when recorded (16 blocks of 2x2 through the
  // closed-form split, 4 of 5x5 through eigen_sym), with 3% slack.
  EXPECT_LE(one.iterations, 395);
  ASSERT_EQ(one.iterations, two.iterations);
  EXPECT_EQ(one.primal_objective, two.primal_objective);  // bitwise
  ASSERT_EQ(one.y.size(), two.y.size());
  for (std::size_t i = 0; i < one.y.size(); ++i) EXPECT_EQ(one.y[i], two.y[i]);
  ASSERT_EQ(one.x.size(), two.x.size());
  for (std::size_t j = 0; j < one.x.size(); ++j) {
    for (std::size_t r = 0; r < one.x[j].rows(); ++r)
      for (std::size_t c = 0; c < one.x[j].cols(); ++c)
        ASSERT_EQ(one.x[j](r, c), two.x[j](r, c)) << j << " " << r << " " << c;
  }

  const Solution recovered = sdp::recover(one, low);
  ASSERT_EQ(recovered.status, SolveStatus::Optimal);
  EXPECT_NEAR(recovered.primal_objective, ipm.primal_objective,
              1e-3 * std::fabs(ipm.primal_objective));
}

TEST(LoweringPipeline, EntryIndexResolvesTheFirstCommonClique) {
  // The clustered clock tree puts the rail in one clique per cluster and
  // each filter node in two; the band chains every vertex through two
  // consecutive cliques. Every (r, c) must resolve to the first clique
  // holding both, at their positions in it, exactly as a scan finds it.
  pll::ClockTreeOptions tree;
  tree.loops = 16;
  tree.cluster = 4;
  tree.neighbor_coupling = 0.05;
  tree.neighbor_hops = tree.cluster - 1;
  const pll::ClockTreeModel model =
      pll::make_clock_tree(pll::Params::paper_third_order(), tree);
  for (const Problem& p : {pll::clock_tree_coupling_sdp(model.constants, tree), banded_sdp(12)}) {
    const sdp::ConversionPlan plan = sdp::plan_decomposition(p, chordal_lowering(4).chordal);
    ASSERT_TRUE(plan.split[0]);
    const util::CliqueForest& forest = plan.forests[0];
    const std::size_t n = p.block_size(0);
    const sdp::BlockEntryIndex idx = sdp::index_decomposed_block(forest, n);
    ASSERT_EQ(idx.n(), n);
    const auto position = [&](std::size_t k, std::size_t v) {
      const auto& clique = forest.cliques[k];
      const auto it = std::find(clique.begin(), clique.end(), v);
      return it == clique.end() ? sdp::BlockEntryIndex::kNone
                                : static_cast<std::size_t>(it - clique.begin());
    };
    std::size_t on_pattern = 0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        std::size_t first = sdp::BlockEntryIndex::kNone;
        for (std::size_t k = 0; k < forest.cliques.size() && first == sdp::BlockEntryIndex::kNone;
             ++k) {
          if (position(k, r) != sdp::BlockEntryIndex::kNone &&
              position(k, c) != sdp::BlockEntryIndex::kNone)
            first = k;
        }
        const sdp::BlockEntryIndex::Entry e = idx.find(r, c);
        ASSERT_EQ(e.clique, first) << r << " " << c;
        if (first == sdp::BlockEntryIndex::kNone) continue;
        ++on_pattern;
        EXPECT_EQ(e.r, position(first, r));
        EXPECT_EQ(e.c, position(first, c));
      }
      for (std::size_t k = 0; k < forest.cliques.size(); ++k)
        EXPECT_EQ(idx.local(k, r), position(k, r)) << k << " " << r;
    }
    EXPECT_GT(on_pattern, n);
    EXPECT_LT(on_pattern, n * n);
    EXPECT_EQ(idx.find(n, 0).clique, sdp::BlockEntryIndex::kNone);
    EXPECT_EQ(idx.local(0, n), sdp::BlockEntryIndex::kNone);
  }
}

TEST(LoweringCache, InPlaceUpdateMatchesFreshLoweringAcrossModes) {
  // The coefficient-update pass contract: for a structurally identical
  // compile with different values, the in-place rewrite must produce the
  // same lowered problem the full pipeline would — same verdict, same
  // objective, same recovered certificate to solver tolerance — in every
  // sparsity mode, with ["update", "equilibrate"] provenance.
  struct Mode {
    const char* name;
    LoweringOptions options;
  };
  std::vector<Mode> modes;
  modes.push_back({"dense", LoweringOptions{}});
  LoweringOptions correlative;
  correlative.sparsity = sdp::SparsityOptions::Correlative;
  modes.push_back({"correlative", correlative});
  modes.push_back({"chordal", chordal_lowering(8)});

  for (const Mode& mode : modes) {
    sdp::LoweringCache cache;
    const Lowering& first = cache.lower(banded_sdp(30), mode.options);
    EXPECT_EQ(cache.full_lowerings(), 1u) << mode.name;
    EXPECT_EQ(cache.updates(), 0u) << mode.name;
    EXPECT_NE(first.passes.front().name, "update") << mode.name;

    const Lowering& updated = cache.lower(banded_sdp(30, 1.45), mode.options);
    ASSERT_EQ(cache.updates(), 1u) << mode.name;
    ASSERT_EQ(updated.passes.size(), 2u) << mode.name;
    EXPECT_EQ(updated.passes[0].name, "update") << mode.name;
    EXPECT_EQ(updated.passes[1].name, "equilibrate") << mode.name;

    const Lowering fresh = sdp::lower(banded_sdp(30, 1.45), mode.options);
    EXPECT_EQ(updated.base_fingerprint, fresh.base_fingerprint) << mode.name;
    EXPECT_EQ(updated.lowered_fingerprint, fresh.lowered_fingerprint) << mode.name;

    sdp::SolveContext ctx_u, ctx_f;
    const Solution sol_u = sdp::recover(sdp::IpmSolver().solve(updated.problem, ctx_u), updated);
    const Solution sol_f = sdp::recover(sdp::IpmSolver().solve(fresh.problem, ctx_f), fresh);
    ASSERT_EQ(sol_u.status, sol_f.status) << mode.name;
    ASSERT_EQ(sol_u.status, SolveStatus::Optimal) << mode.name;
    EXPECT_NEAR(sol_u.primal_objective, sol_f.primal_objective,
                1e-6 * (1.0 + std::fabs(sol_f.primal_objective)))
        << mode.name;
    const Problem reference = banded_sdp(30, 1.45);
    EXPECT_LT(primal_violation(reference, sol_u), 1e-5) << mode.name;
    // Certificate parity entry-by-entry to solver tolerance.
    ASSERT_EQ(sol_u.x.size(), sol_f.x.size()) << mode.name;
    for (std::size_t j = 0; j < sol_u.x.size(); ++j) {
      for (std::size_t r = 0; r < sol_u.x[j].rows(); ++r)
        for (std::size_t c = 0; c < sol_u.x[j].cols(); ++c)
          ASSERT_NEAR(sol_u.x[j](r, c), sol_f.x[j](r, c), 1e-5) << mode.name;
    }
  }
}

TEST(LoweringCache, DecomposedClockTreeUpdateParity) {
  // Same contract on a genuinely decomposed instance: the clock-tree
  // coupling SDP under native chordal lowering, with the coefficient change
  // coming from a real design move (different pump current / VCO gain).
  pll::Params tweaked = pll::Params::paper_third_order();
  tweaked.ip = {540e-6, 550e-6};
  tweaked.kv = {170.0, 175.0};

  sdp::LoweringCache cache;
  const LoweringOptions options = chordal_lowering(4);
  const Lowering& first = cache.lower(clock_tree_sdp(8), options);
  ASSERT_TRUE(first.decomposed());

  pll::ClockTreeOptions tree;
  tree.loops = 8;
  const pll::ClockTreeModel model = pll::make_clock_tree(tweaked, tree);
  const Lowering& updated =
      cache.lower(pll::clock_tree_coupling_sdp(model.constants, tree), options);
  ASSERT_EQ(cache.updates(), 1u);
  ASSERT_EQ(cache.full_lowerings(), 1u);
  EXPECT_EQ(updated.passes.front().name, "update");
  ASSERT_TRUE(updated.decomposed());

  const Problem reference = pll::clock_tree_coupling_sdp(model.constants, tree);
  const Lowering fresh = sdp::lower(pll::clock_tree_coupling_sdp(model.constants, tree),
                                    options);
  EXPECT_EQ(updated.lowered_fingerprint, fresh.lowered_fingerprint);

  sdp::SolveContext ctx_u, ctx_f;
  const Solution sol_u = sdp::recover(sdp::IpmSolver().solve(updated.problem, ctx_u), updated);
  const Solution sol_f = sdp::recover(sdp::IpmSolver().solve(fresh.problem, ctx_f), fresh);
  ASSERT_EQ(sol_u.status, SolveStatus::Optimal);
  ASSERT_EQ(sol_f.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol_u.primal_objective, sol_f.primal_objective,
              1e-5 * (1.0 + std::fabs(sol_f.primal_objective)));
  EXPECT_LT(primal_violation(reference, sol_u), 1e-5);
  EXPECT_LT(primal_violation(reference, sol_f), 1e-5);
}

TEST(LoweringCache, FallsBackToFullPipelineOnAnyStructuralChange) {
  sdp::LoweringCache cache;
  EXPECT_FALSE(cache.valid());
  cache.lower(banded_sdp(30), chordal_lowering(8));
  EXPECT_TRUE(cache.valid());
  EXPECT_EQ(cache.full_lowerings(), 1u);

  // Different structure (different size) → full pipeline, re-cached.
  const Lowering& other = cache.lower(banded_sdp(26), chordal_lowering(8));
  EXPECT_EQ(cache.full_lowerings(), 2u);
  EXPECT_EQ(cache.updates(), 0u);
  EXPECT_EQ(other.passes.front().name, "analyze");

  // Different pass options → full pipeline even for an identical structure.
  cache.lower(banded_sdp(26), chordal_lowering(6));
  EXPECT_EQ(cache.full_lowerings(), 3u);
  EXPECT_EQ(cache.updates(), 0u);

  // Matching structure + options → the in-place path.
  cache.lower(banded_sdp(26, 1.2), chordal_lowering(6));
  EXPECT_EQ(cache.full_lowerings(), 3u);
  EXPECT_EQ(cache.updates(), 1u);

  // A coefficient that became exactly 0.0 drops its triplet: the fingerprint
  // changes and the cache must relower, never rewrite against a stale plan.
  const Lowering& dropped = cache.lower(banded_sdp(26, 1.2, true), chordal_lowering(6));
  EXPECT_EQ(cache.full_lowerings(), 4u);
  EXPECT_EQ(cache.updates(), 1u);
  EXPECT_EQ(dropped.passes.front().name, "analyze");

  // Objective triplets are not fingerprinted. New values on the cached band
  // (a larger trace weight, plus an entry at the banded position (1, 2))
  // take the update pass and are re-scattered onto the cliques.
  Problem on_band = banded_sdp(26, 1.2, true);
  sdp::SparseSym c = sdp::SparseSym::diagonal(26, 2.0);
  c.add(1, 2, 0.25);
  on_band.set_block_objective(0, c);
  const Lowering& updated = cache.lower(std::move(on_band), chordal_lowering(6));
  EXPECT_EQ(cache.full_lowerings(), 4u);
  EXPECT_EQ(cache.updates(), 2u);
  EXPECT_EQ(updated.passes.front().name, "update");
  double objective_sum = 0.0;
  for (std::size_t j = 0; j < updated.problem.num_blocks(); ++j) {
    for (const sdp::Triplet& t : updated.problem.block_objective(j).entries)
      objective_sum += t.v;
  }
  EXPECT_DOUBLE_EQ(objective_sum, 26 * 2.0 + 0.25);

  // An objective entry off the band would change the cliques a fresh
  // decomposition picks: full pipeline.
  Problem off_band = banded_sdp(26, 1.2, true);
  c.add(0, 25, 0.25);
  off_band.set_block_objective(0, c);
  const Lowering& relowered = cache.lower(std::move(off_band), chordal_lowering(6));
  EXPECT_EQ(cache.full_lowerings(), 5u);
  EXPECT_EQ(cache.updates(), 2u);
  EXPECT_EQ(relowered.passes.front().name, "analyze");
}

TEST(PhaseTimes, ConvertAndCompleteJoinTheTaxonomy) {
  sdp::PhaseTimes a;
  a.schur = 1.0;
  a.convert = 0.25;
  a.complete = 0.5;
  sdp::PhaseTimes b;
  b.convert = 0.75;
  b.eig = 2.0;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.convert, 1.0);
  EXPECT_DOUBLE_EQ(a.complete, 0.5);
  EXPECT_DOUBLE_EQ(a.total(), 1.0 + 2.0 + 1.0 + 0.5);
}

}  // namespace
}  // namespace soslock
