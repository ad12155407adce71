// Tests for the incremental-solve path: structure fingerprints, the
// WarmStart restore of both backends, state preservation on interrupted
// solves, the pattern cache, warm-start threading through the core retry
// loops, and the maximize_region ADMM stall regression (classification by
// the first-order backend, recovery through the "auto" policy backend).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/advection.hpp"
#include "core/barrier.hpp"
#include "core/escape.hpp"
#include "core/level_set.hpp"
#include "core/lyapunov.hpp"
#include "core/rate.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "sdp/admm.hpp"
#include "sdp/ipm.hpp"
#include "sdp/solver.hpp"
#include "sdp/structure.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"
#include "util/rng.hpp"

namespace soslock {
namespace {

using linalg::Matrix;
using sdp::Problem;
using sdp::Row;
using sdp::Solution;
using sdp::SolveStatus;
using sdp::SparseSym;

/// Random feasible min-trace SDP: b = A(X*) for a random PSD X*.
Problem random_feasible_sdp(std::uint64_t seed, std::size_t n = 6, std::size_t m = 8) {
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

TEST(StructureFingerprint, ValueChangesPreserveItStructureChangesDoNot) {
  const Problem p = random_feasible_sdp(3);
  Problem same_structure = p;
  for (Row& row : same_structure.mutable_rows()) {
    row.rhs *= 2.0;
    for (auto& [j, a] : row.blocks)
      for (auto& t : a.entries) t.v *= 0.5;
  }
  EXPECT_EQ(sdp::structure_fingerprint(p), sdp::structure_fingerprint(same_structure));

  Problem extra_row = p;
  {
    Row row;
    SparseSym a;
    a.add(0, 0, 1.0);
    row.blocks[0] = a;
    extra_row.add_row(std::move(row));
  }
  EXPECT_NE(sdp::structure_fingerprint(p), sdp::structure_fingerprint(extra_row));

  Problem moved_entry = p;
  moved_entry.mutable_rows()[0].blocks.begin()->second.entries[0].c += 1;
  EXPECT_NE(sdp::structure_fingerprint(p), sdp::structure_fingerprint(moved_entry));
}

TEST(StructureCache, RepeatedStructurallyEqualProblemsHit) {
  sdp::StructureCache cache(4);
  const Problem p = random_feasible_sdp(4);
  const auto first = cache.get(p);
  EXPECT_EQ(cache.hits(), 0u);
  const auto second = cache.get(p);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->rows_touching_block.size(), p.num_blocks());
}

TEST(StructureCache, ConcurrentMixedShapeStress) {
  // ThreadSanitizer-style stress of the process-wide pattern cache as
  // the batched stages' workers drive it: many threads, more distinct shapes
  // than slots (every insert evicts), every get() validated against a
  // from-scratch rebuild. Run under -fsanitize=thread this doubles as a
  // data-race detector; without it, it still catches iterator invalidation
  // (crash), duplicate-slot eviction bugs (wrong pattern served), and lost
  // or bogus structures.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kShapes = 6;
  constexpr int kIters = 200;
  sdp::StructureCache cache(2);  // much smaller than the working set

  std::vector<Problem> problems;
  std::vector<sdp::ProblemStructure> expected;
  for (std::size_t s = 0; s < kShapes; ++s) {
    // Distinct structures: vary block size and row count.
    problems.push_back(random_feasible_sdp(100 + s, 4 + s, 6 + s));
    expected.push_back(sdp::build_structure(problems.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t s = (t * 31 + static_cast<std::size_t>(i) * 7) % kShapes;
        const auto structure = cache.get(problems[s]);
        if (structure->fingerprint != expected[s].fingerprint ||
            structure->num_rows != expected[s].num_rows ||
            structure->rows_touching_block != expected[s].rows_touching_block) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Shared shapes were revisited constantly: the cache must have served hits.
  EXPECT_GT(cache.hits(), 0u);
}

TEST(StructureCache, IncompatibleShapeIsNeverServedForAFingerprint) {
  // compatible_with is the collision guard: equal fingerprints with a
  // different shape must not be accepted (a served collision would hand the
  // backends out-of-range row indices).
  const Problem a = random_feasible_sdp(11, 5, 7);
  const Problem b = random_feasible_sdp(12, 6, 9);
  const sdp::ProblemStructure sa = sdp::build_structure(a);
  EXPECT_TRUE(sa.compatible_with(a));
  EXPECT_FALSE(sa.compatible_with(b));
}

TEST(StructureCache, CapacityBoundEvictsLruAndCountsTelemetry) {
  // The LRU cap + counters the sweep service surfaces per request: misses
  // count fresh builds, evictions count entries dropped by the bound, and
  // hit-promotion keeps a hot shape alive through eviction rounds.
  sdp::StructureCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  const Problem s0 = random_feasible_sdp(20, 4, 6);
  const Problem s1 = random_feasible_sdp(21, 5, 7);
  const Problem s2 = random_feasible_sdp(22, 6, 8);

  cache.get(s0);
  cache.get(s1);
  sdp::StructureCacheTelemetry t = cache.telemetry();
  EXPECT_EQ(t.misses, 2u);
  EXPECT_EQ(t.evictions, 0u);
  EXPECT_EQ(t.entries, 2u);

  cache.get(s2);  // over capacity: evicts s0, the least recently used
  t = cache.telemetry();
  EXPECT_EQ(t.misses, 3u);
  EXPECT_EQ(t.evictions, 1u);
  EXPECT_EQ(t.entries, 2u);

  cache.get(s1);  // still cached: a hit, promoted to most recently used
  t = cache.telemetry();
  EXPECT_EQ(t.hits, 1u);
  EXPECT_EQ(cache.hits(), t.hits);

  cache.get(s0);  // was evicted: a fresh miss, evicting s2 (s1 is protected)
  cache.get(s1);  // the promotion survived both eviction rounds
  t = cache.telemetry();
  EXPECT_EQ(t.hits, 2u);
  EXPECT_EQ(t.misses, 4u);
  EXPECT_EQ(t.evictions, 2u);

  // Shrinking the cap evicts immediately (and is itself counted).
  cache.set_capacity(1);
  t = cache.telemetry();
  EXPECT_EQ(t.capacity, 1u);
  EXPECT_EQ(t.entries, 1u);
  EXPECT_EQ(t.evictions, 3u);
}

TEST(WarmStart, FitsChecksShapes) {
  const Problem p = random_feasible_sdp(5);
  const Solution sol = sdp::IpmSolver().solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  const sdp::WarmStart ws = sdp::make_warm_start(sol, 123);
  EXPECT_EQ(ws.fingerprint, 123u);
  EXPECT_FALSE(ws.empty());
  EXPECT_TRUE(ws.fits(p));
  const Problem other = random_feasible_sdp(6, 5, 8);  // different block size
  EXPECT_FALSE(ws.fits(other));
  // Right row count, wrong column count (a corrupt checkpoint lane): the
  // warm restore would read the block as n x n.
  sdp::WarmStart narrow_x = ws;
  narrow_x.x[0] = Matrix(6, 1);
  EXPECT_FALSE(narrow_x.fits(p));
  sdp::WarmStart narrow_z = ws;
  narrow_z.z[0] = Matrix(6, 2);
  EXPECT_FALSE(narrow_z.fits(p));
}

TEST(WarmStart, IpmShiftedRestoreConvergesFaster) {
  const Problem p = random_feasible_sdp(7);
  const Solution cold = sdp::IpmSolver().solve(p);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);

  const sdp::WarmStart ws = sdp::make_warm_start(cold, 0);
  sdp::SolveContext context;
  context.warm_start = &ws;
  const Solution warm = sdp::IpmSolver().solve(p, context);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_NEAR(warm.primal_objective, cold.primal_objective,
              1e-4 * (1.0 + std::fabs(cold.primal_objective)));
}

TEST(WarmStart, AdmmRawRestoreConvergesFaster) {
  const Problem p = random_feasible_sdp(9);
  const Solution cold = sdp::AdmmSolver().solve(p);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);

  const sdp::WarmStart ws = sdp::make_warm_start(cold, 0);
  sdp::SolveContext context;
  context.warm_start = &ws;
  const Solution warm = sdp::AdmmSolver().solve(p, context);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  EXPECT_LE(warm.iterations, cold.iterations / 2);
  EXPECT_NEAR(warm.primal_objective, cold.primal_objective,
              1e-4 * (1.0 + std::fabs(cold.primal_objective)));
}

sos::SosProgram small_sos_program() {
  using poly::Polynomial;
  const Polynomial x = Polynomial::variable(2, 0);
  const Polynomial y = Polynomial::variable(2, 1);
  const Polynomial p =
      2.0 * x.pow(4) + 2.0 * x.pow(3) * y - x * x * y * y + 5.0 * y.pow(4);
  sos::SosProgram prog(2);
  prog.set_trace_regularization(1e-8);
  prog.add_sos_constraint(p, "p");
  return prog;
}

TEST(WarmStart, SolveResultCarriesReplayableBlob) {
  const sos::SosProgram prog = small_sos_program();
  sdp::SolverConfig config;
  config.backend = "ipm";
  const sos::SolveResult cold = prog.solve(config);
  ASSERT_TRUE(cold.feasible);
  ASSERT_FALSE(cold.warm.empty());
  ASSERT_NE(cold.warm.fingerprint, 0u);

  const sos::SolveResult warm = prog.solve(config, &cold.warm);
  EXPECT_TRUE(warm.feasible);
  EXPECT_LT(warm.sdp.iterations, cold.sdp.iterations);
  EXPECT_TRUE(sos::audit(prog, warm).ok);
}

TEST(WarmStart, MismatchedBlobSolvesColdAndSucceeds) {
  const sos::SosProgram prog = small_sos_program();
  sdp::SolverConfig config;
  config.backend = "ipm";
  sos::SolveResult cold = prog.solve(config);
  ASSERT_TRUE(cold.feasible);
  cold.warm.fingerprint ^= 0xdeadbeef;  // no longer matches the program
  const sos::SolveResult again = prog.solve(config, &cold.warm);
  EXPECT_TRUE(again.feasible);
  EXPECT_EQ(again.sdp.iterations, cold.sdp.iterations);  // identical cold solve
}

TEST(WarmStart, InterruptedSolveStillExportsState) {
  const sos::SosProgram prog = small_sos_program();
  sdp::SolverConfig config;
  config.backend = "ipm";
  config.time_budget_seconds = 1e-9;  // expires before the first iteration
  const sos::SolveResult interrupted = prog.solve(config);
  ASSERT_EQ(interrupted.status, SolveStatus::Interrupted);
  // The aborted solve's best iterate is preserved for the next attempt
  // instead of being dropped on the floor.
  EXPECT_FALSE(interrupted.warm.empty());
  EXPECT_NE(interrupted.warm.fingerprint, 0u);
  ASSERT_FALSE(interrupted.warm.x.empty());
  EXPECT_GT(interrupted.warm.x[0].rows(), 0u);

  // And replaying it must be accepted (fingerprint matches the program).
  sdp::SolverConfig retry;
  retry.backend = "ipm";
  const sos::SolveResult resumed = prog.solve(retry, &interrupted.warm);
  EXPECT_TRUE(resumed.feasible);
}

// --- core-loop integration -------------------------------------------------

poly::Polynomial ellipsoid(std::size_t nvars, const std::vector<double>& semiaxes) {
  poly::Polynomial b(nvars);
  for (std::size_t i = 0; i < semiaxes.size(); ++i) {
    const poly::Polynomial x = poly::Polynomial::variable(nvars, i);
    b += (1.0 / (semiaxes[i] * semiaxes[i])) * x * x;
  }
  b -= poly::Polynomial::constant(nvars, 1.0);
  b *= 0.5;
  return b;
}

/// The default solver config with warm starts switched on or off.
sdp::SolverConfig warm_config(bool warm) {
  sdp::SolverConfig config;
  config.warm_start = warm;
  return config;
}

core::LyapunovOptions third_order_lyapunov_options() {
  core::LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = core::FlowDecrease::Strict;
  opt.strict_margin = 1e-4;
  opt.maximize_region = true;
  return opt;
}

/// Drive the advection ladder for a few steps; returns aggregated stats and
/// the final iterate.
std::pair<sos::SolveStats, poly::Polynomial> run_advection(
    const hybrid::HybridSystem& system, bool warm, int steps) {
  core::AdvectionOptions opt;
  opt.h = 0.01;
  opt.gamma = 0.008;
  opt.eps = 0.3;
  const core::AdvectionEngine engine(system, opt, warm_config(warm));
  poly::Polynomial b = ellipsoid(system.nvars(), {5.0, 4.2, 0.9});
  sos::SolveStats stats;
  for (int it = 0; it < steps; ++it) {
    const core::AdvectionStepResult step = engine.step(b);
    stats.merge(step.solver);
    if (!step.success) break;
    EXPECT_TRUE(step.audit.ok) << "warm=" << warm << " step " << it;
    b = step.next;
  }
  return {stats, b};
}

TEST(WarmStartLoops, AdvectionRetryLadderSameCertificatesFewerIterations) {
  const pll::ReducedModel model = pll::make_averaged(pll::Params::paper_third_order());
  const auto [cold_stats, cold_b] = run_advection(model.system, false, 4);
  const auto [warm_stats, warm_b] = run_advection(model.system, true, 4);

  // Same audited certificate chain: every step of both runs passed its audit
  // (asserted inside run_advection), and the final normalized iterates agree
  // to solver-tolerance-times-chain-amplification. Exact coefficient equality
  // is not expected — the advection optimum is not unique at tolerance, and
  // four steps compound the solver's 1e-7 into ~1e-3 wiggle.
  for (const auto& [m, c] : cold_b.terms()) {
    EXPECT_NEAR(c, warm_b.coefficient(m), 0.05 * (1.0 + std::fabs(c))) << m.str();
  }
  // Strictly fewer total iterations with warm starts on.
  EXPECT_LT(warm_stats.iterations, cold_stats.iterations);
}

TEST(WarmStartLoops, LevelCurvesWarmSeedMatchesColdLevels) {
  const pll::ReducedModel model =
      pll::make_averaged_vertices(pll::Params::paper_third_order());
  const core::LyapunovResult lyap =
      core::LyapunovSynthesizer(third_order_lyapunov_options()).synthesize(model.system);
  ASSERT_TRUE(lyap.success);

  const core::LevelSetResult cold = core::LevelSetMaximizer({}, warm_config(false))
                                        .maximize(model.system, lyap.certificates);
  const core::LevelSetResult warm = core::LevelSetMaximizer({}, warm_config(true))
                                        .maximize(model.system, lyap.certificates);
  ASSERT_TRUE(cold.success);
  ASSERT_TRUE(warm.success);
  ASSERT_EQ(cold.levels.size(), warm.levels.size());
  for (std::size_t q = 0; q < cold.levels.size(); ++q) {
    EXPECT_NEAR(cold.levels[q], warm.levels[q], 1e-4 * (1.0 + std::fabs(cold.levels[q])));
  }
  EXPECT_LT(warm.solver.iterations, cold.solver.iterations);
}

// --- warm-start coverage: escape / rate / barrier ---------------------------

TEST(WarmStartLoops, EscapePerModeSeedingSucceedsWithFewerOrEqualIterations) {
  // The per-mode escape programs share one compiled shape on the pump-vertex
  // model: with warm starts on, mode 0 seeds mode 1.
  const pll::ReducedModel model =
      pll::make_averaged_vertices(pll::Params::paper_third_order());
  const core::LyapunovResult lyap =
      core::LyapunovSynthesizer(third_order_lyapunov_options()).synthesize(model.system);
  ASSERT_TRUE(lyap.success);

  const poly::Polynomial region = ellipsoid(model.system.nvars(), {6.0, 6.0, 1.0});
  auto run = [&](bool warm) {
    core::EscapeOptions opt;
    opt.certificate_degree = 2;
    const core::EscapeCertifier certifier(opt, warm_config(warm));
    return certifier.certify(model.system, {0, 1}, region, lyap.certificates, 0.05);
  };
  const core::EscapeResult cold = run(false);
  const core::EscapeResult warm = run(true);
  ASSERT_EQ(cold.success, warm.success);
  if (cold.success) {
    ASSERT_EQ(cold.rates.size(), warm.rates.size());
    for (std::size_t i = 0; i < cold.rates.size(); ++i)
      EXPECT_NEAR(cold.rates[i], warm.rates[i], 1e-3 * (1.0 + std::fabs(cold.rates[i])));
  }
  EXPECT_LE(warm.solver.iterations, cold.solver.iterations);
}

TEST(WarmStartLoops, RateRepeatedCertifyReusesIterates) {
  // Certifying rates for several modes of one system re-solves one compiled
  // shape per program family (rate / lower envelope / upper envelope); the
  // second certify() call must replay the first call's iterates.
  const pll::ReducedModel model =
      pll::make_averaged_vertices(pll::Params::paper_third_order());
  const core::LyapunovResult lyap =
      core::LyapunovSynthesizer(third_order_lyapunov_options()).synthesize(model.system);
  ASSERT_TRUE(lyap.success);

  const core::RateCertifier warm_certifier({}, warm_config(true));
  const core::RateResult first = warm_certifier.certify(model.system, 0, lyap.certificates[0]);
  const core::RateResult second = warm_certifier.certify(model.system, 1, lyap.certificates[1]);

  const core::RateCertifier cold_certifier({}, warm_config(false));
  const core::RateResult cold0 = cold_certifier.certify(model.system, 0, lyap.certificates[0]);
  const core::RateResult cold1 = cold_certifier.certify(model.system, 1, lyap.certificates[1]);

  EXPECT_EQ(first.success, cold0.success);
  EXPECT_EQ(second.success, cold1.success);
  if (second.success && cold1.success) {
    EXPECT_NEAR(second.alpha, cold1.alpha, 1e-2 * (1.0 + std::fabs(cold1.alpha)));
  }
  // The warmed second call must not exceed the cold one's iteration bill.
  EXPECT_LE(second.solver.iterations, cold1.solver.iterations);
}

TEST(WarmStartLoops, BarrierRepeatedCertifyReusesIterates) {
  // A margin sweep re-certifies one compiled barrier shape; the second
  // certify() call warm-starts from the first.
  const pll::ReducedModel model = pll::make_averaged(pll::Params::paper_third_order());
  hybrid::SemialgebraicSet initial(model.system.nvars());
  initial.add_interval(0, -1.0, 1.0);
  initial.add_interval(1, -1.0, 1.0);
  initial.add_interval(2, -0.5, 0.5);
  hybrid::SemialgebraicSet unsafe(model.system.nvars());
  unsafe.add_interval(2, 0.9, 1.5);

  core::BarrierOptions opt;
  opt.certificate_degree = 2;
  const core::BarrierCertifier warm_certifier(opt, warm_config(true));
  const core::BarrierResult first = warm_certifier.certify(model.system, initial, unsafe);
  const core::BarrierResult second = warm_certifier.certify(model.system, initial, unsafe);

  const core::BarrierCertifier cold_certifier(opt, warm_config(false));
  const core::BarrierResult cold = cold_certifier.certify(model.system, initial, unsafe);

  EXPECT_EQ(first.success, cold.success);
  EXPECT_EQ(second.success, cold.success);
  if (cold.success) {
    // The replayed solve converges strictly faster than the cold one.
    EXPECT_LT(second.solver.iterations, cold.solver.iterations);
  }
}

// --- maximize_region ADMM stall regression ---------------------------------

TEST(AdmmStallRegression, MaximizeRegionClassifiesInsteadOfStalling) {
  // PR 1 shipped this exact configuration as a known stall: the ADMM crawled
  // through its full 20k-iteration budget on the degenerate maximize_region
  // objective. The fix classifies the degenerate-drift lock early and
  // returns the best iterate with honest residuals (the program is solvable
  // — the IPM proves it — but not by this splitting from a cold start).
  const pll::ReducedModel model = pll::make_averaged(pll::Params::paper_third_order());
  sdp::SolverConfig config;
  config.backend = "admm";
  const core::LyapunovSynthesizer synthesizer(third_order_lyapunov_options(), config);
  const core::LyapunovResult result = synthesizer.synthesize(model.system);

  // No stall: the classification fires long before the iteration budget.
  EXPECT_LT(result.solver.iterations, sdp::AdmmOptions{}.max_iterations / 4);
  if (!result.success) {
    // Classified, not silently wrong: a non-Optimal status with the honest
    // residual profile, never a fake "solved".
    EXPECT_NE(result.status, SolveStatus::Optimal);
    EXPECT_FALSE(result.message.empty());
  }
}

TEST(AdmmStallRegression, AutoRecoversMaximizeRegionThroughWarmHandoff) {
  // With "auto" forced to pick the first-order backend (threshold 1), the
  // degenerate-drift classification triggers the policy-level recovery: the
  // IPM re-solve, warm-started from the ADMM's best iterate, must produce
  // audited certificates. This is what lets "auto" route by block size
  // without special-casing the maximize_region objective.
  const pll::ReducedModel model = pll::make_averaged(pll::Params::paper_third_order());
  sdp::SolverConfig config;
  config.backend = "auto";
  config.auto_block_threshold = 1;  // force the first-order delegate
  const core::LyapunovSynthesizer synthesizer(third_order_lyapunov_options(), config);
  const core::LyapunovResult result = synthesizer.synthesize(model.system);
  EXPECT_TRUE(result.success) << result.message;
  EXPECT_TRUE(result.audit.ok);
}

}  // namespace
}  // namespace soslock
