// Tests for the declarative resilience layer (sdp/resilience) and the sweep
// checkpoint/resume machinery — the behaviors that hold in Release builds
// with SOSLOCK_FAULTS compiled out:
//
//   * recovery semantics: a stalled primary falls back to the IPM with a
//     RecoveryRecord, an Interrupted solve is never retried, and recovery is
//     deterministic (two runs agree bitwise);
//   * the "auto" meta-backend routes through the same recovery;
//   * cancellation mid-lowering-pass (fault-callback trigger, Debug builds)
//     and mid-ADMM-solve leave caches and partial Solutions consistent;
//   * sweep checkpoints: save/load round-trip, corrupt-file fail-soft, and
//     the kill-and-resume sweep is verdict-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "pll/params.hpp"
#include "sdp/admm.hpp"
#include "sdp/lowering.hpp"
#include "sdp/resilience.hpp"
#include "sdp/solver.hpp"
#include "sos/program.hpp"
#include "sweep/checkpoint.hpp"
#include "sweep/grid.hpp"
#include "sweep/query.hpp"
#include "sweep/service.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace soslock {
namespace {

using linalg::Matrix;
using sdp::Problem;
using sdp::Solution;
using sdp::SolveStatus;

#if defined(SOSLOCK_FAULTS)
constexpr bool kFaultsCompiled = true;
#else
constexpr bool kFaultsCompiled = false;
#endif

/// Random feasible min-trace SDP (b = A(X*) for a random PSD X*).
Problem random_feasible_sdp(std::uint64_t seed, std::size_t n = 5, std::size_t m = 4) {
  util::Rng rng(seed);
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
  const Matrix xstar = linalg::transposed_times(g, g);

  Problem p;
  const std::size_t b = p.add_block(n);
  p.set_block_objective(b, sdp::SparseSym::diagonal(n, 1.0));
  for (std::size_t i = 0; i < m; ++i) {
    sdp::Row row;
    sdp::SparseSym a;
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

/// Feasible banded min-trace SDP (chordal-decomposable chain).
Problem banded_sdp(std::size_t n) {
  Problem p;
  const std::size_t blk = p.add_block(n);
  p.set_block_objective(blk, sdp::SparseSym::diagonal(n, 1.0));
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

/// A config whose ADMM is starved of iterations, so the primary attempt
/// comes back MaxIterations with bad residuals — unusable but deterministic
/// (and too starved for even a warm-started same-backend fallback to finish).
sdp::SolverConfig starved_admm_config() {
  sdp::SolverConfig config;
  config.backend = "admm";
  config.admm.max_iterations = 5;
  config.threads = 1;
  return config;
}

TEST(ResiliencePolicy, StalledPrimaryFallsBackDownTheChain) {
  sdp::SolveContext context;
  const Solution sol =
      sdp::resilient_solve(random_feasible_sdp(5), context, starved_admm_config());
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_EQ(sol.backend, "ipm");
  ASSERT_EQ(sol.recoveries.size(), 1u);  // deterministic stall: no retry first
  EXPECT_EQ(sol.recoveries[0].action, "fallback");
  EXPECT_EQ(sol.recoveries[0].from, "admm");
  EXPECT_EQ(sol.recoveries[0].to, "ipm");
  EXPECT_NE(sol.recoveries[0].reason.find("MaxIterations"), std::string::npos);
  // Telemetry is cumulative across the chain: the failed ADMM attempt's
  // iterations ride along with the rescuing IPM's.
  sdp::SolveContext raw_context;
  const Solution failed = sdp::make_solver("admm", starved_admm_config())
                              ->solve(random_feasible_sdp(5), raw_context);
  EXPECT_EQ(failed.status, SolveStatus::MaxIterations);
  EXPECT_GT(sol.iterations, failed.iterations);
}

TEST(ResiliencePolicy, RecoveryIsDeterministic) {
  sdp::SolveContext ca, cb;
  const sdp::SolverConfig config = starved_admm_config();
  const Solution a = sdp::resilient_solve(random_feasible_sdp(6), ca, config);
  const Solution b = sdp::resilient_solve(random_feasible_sdp(6), cb, config);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.primal_objective, b.primal_objective);  // bitwise on purpose
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_EQ(a.recoveries[i].reason, b.recoveries[i].reason);
  }
}

TEST(ResiliencePolicy, InterruptedSolveIsNeverRetried) {
  std::atomic<bool> cancel{true};  // cancelled before the first iteration
  sdp::SolveContext context;
  context.cancel = &cancel;
  const Solution sol =
      sdp::resilient_solve(random_feasible_sdp(5), context, starved_admm_config());
  EXPECT_EQ(sol.status, SolveStatus::Interrupted);
  EXPECT_TRUE(sol.recoveries.empty());
}

TEST(ResiliencePolicy, UnknownBackendNamesStillThrowConfigErrors) {
  sdp::SolverConfig config;
  config.backend = "no-such-backend";
  sdp::SolveContext context;
  EXPECT_THROW(sdp::resilient_solve(random_feasible_sdp(5), context, config),
               std::invalid_argument);
}

TEST(ResiliencePolicy, AutoBackendRoutesThroughTheSamePolicy) {
  // Force the auto heuristic to the starved ADMM so its ADMM → IPM rescue
  // runs through resilient_solve.
  sdp::SolverConfig config = starved_admm_config();
  config.backend = "auto";
  config.auto_block_threshold = 1;
  const auto solver = sdp::make_solver(config);
  sdp::SolveContext context;
  const Solution sol = solver->solve(random_feasible_sdp(5), context);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  ASSERT_FALSE(sol.recoveries.empty());
  EXPECT_EQ(sol.recoveries.back().to, "ipm");
}

TEST(Cancellation, MidLoweringPassLeavesCachesConsistent) {
  if (!kFaultsCompiled) GTEST_SKIP() << "needs the fault-callback trigger (Debug)";
  util::FaultInjector::reset();
  std::atomic<bool> cancel{false};
  // The callback arms cancellation from *inside* the lowering pipeline —
  // between the analyze and decompose passes — without failing the pass.
  util::FaultInjector::arm_callback(util::fault_site::kLoweringPass,
                                    [&cancel] { cancel.store(true); });

  const sweep::CertificationQuery query = sweep::lyapunov_query();
  const sos::SosProgram program = query.build(pll::Params::paper_third_order());
  sdp::SolverConfig config;
  config.backend = "ipm";
  const auto backend = sdp::make_solver(config);
  sdp::LoweringCache cache;

  sdp::SolveContext context;
  context.cancel = &cancel;
  const sos::SolveResult first = program.solve(*backend, context, cache);
  EXPECT_EQ(first.status, SolveStatus::Interrupted);
  EXPECT_EQ(util::FaultInjector::fired(util::fault_site::kLoweringPass), 1);
  EXPECT_EQ(cache.full_lowerings(), 1u);  // the lowering itself completed

  // The caches survived the cancelled solve: the re-solve takes the
  // in-place update path and certifies.
  cancel.store(false);
  sdp::SolveContext retry_context;
  const sos::SolveResult second = program.solve(*backend, retry_context, cache);
  EXPECT_EQ(second.status, SolveStatus::Optimal);
  EXPECT_TRUE(second.feasible);
  EXPECT_EQ(cache.full_lowerings(), 1u);
  EXPECT_EQ(cache.updates(), 1u);
  util::FaultInjector::reset();
}

TEST(Cancellation, MidAdmmSolveLeavesPartialSolutionConsistent) {
  sdp::LoweringOptions lopt;
  lopt.sparsity = sdp::SparsityOptions::Chordal;
  lopt.chordal.min_block_size = 8;
  const sdp::Lowering low = sdp::lower(banded_sdp(30), lopt);
  ASSERT_TRUE(low.decomposed());

  std::atomic<bool> cancel{false};
  sdp::SolveContext context;
  context.cancel = &cancel;
  int rounds = 0;
  context.on_iteration = [&](const sdp::IterationInfo&) {
    if (++rounds == 3) cancel.store(true, std::memory_order_relaxed);
  };
  const Solution sol = sdp::AdmmSolver().solve(low.problem, context);
  EXPECT_EQ(sol.status, SolveStatus::Interrupted);
  EXPECT_TRUE(sol.recoveries.empty());  // cancellation is not a failure

  // The partial Solution is a consistent iterate: full block set, finite
  // entries, populated multipliers.
  ASSERT_EQ(sol.x.size(), low.problem.num_blocks());
  double acc = 0.0;
  for (const Matrix& xj : sol.x)
    for (std::size_t r = 0; r < xj.rows(); ++r)
      for (std::size_t c = 0; c < xj.cols(); ++c) acc += xj(r, c);
  for (const double v : sol.y) acc += v;
  EXPECT_TRUE(std::isfinite(acc));

  // The same engine solves clean immediately afterwards.
  cancel.store(false);
  sdp::SolveContext clean;
  EXPECT_EQ(sdp::AdmmSolver().solve(low.problem, clean).status, SolveStatus::Optimal);
}

TEST(SweepCheckpoint, SaveLoadRoundTripIsExact) {
  const char* path = "resilience_ckpt_roundtrip.txt";
  sweep::SweepCheckpoint cp;
  cp.grid_points = 6;
  cp.lanes = 1;
  sweep::PointRecord rec;
  rec.index = 2;
  rec.certified = true;
  rec.status = SolveStatus::Optimal;
  rec.iterations = 7;
  rec.warm_hit = true;
  rec.solve_seconds = 0.25;
  rec.audit_residual = 1.25e-9;
  rec.objective = 3.0625;
  cp.completed.push_back(rec);
  sdp::WarmStart chain;
  chain.fingerprint = 42;
  chain.x = {Matrix::identity(2)};
  chain.z = {Matrix::identity(2)};
  chain.x[0](0, 1) = -0.125;
  chain.y = {1.0, -0.5, 1.0 / 3.0};
  cp.lane_chains = {chain};

  ASSERT_TRUE(sweep::save_checkpoint(path, cp));
  const sweep::SweepCheckpoint loaded = sweep::load_checkpoint(path);
  std::remove(path);
  EXPECT_EQ(loaded.grid_points, 6u);
  EXPECT_EQ(loaded.lanes, 1u);
  ASSERT_EQ(loaded.completed.size(), 1u);
  EXPECT_EQ(loaded.completed[0].index, 2u);
  EXPECT_TRUE(loaded.completed[0].certified);
  EXPECT_EQ(loaded.completed[0].status, SolveStatus::Optimal);
  EXPECT_EQ(loaded.completed[0].iterations, 7);
  EXPECT_EQ(loaded.completed[0].solve_seconds, 0.25);
  EXPECT_EQ(loaded.completed[0].audit_residual, 1.25e-9);
  ASSERT_EQ(loaded.lane_chains.size(), 1u);
  EXPECT_EQ(loaded.lane_chains[0].fingerprint, 42u);
  ASSERT_EQ(loaded.lane_chains[0].x.size(), 1u);
  EXPECT_EQ(loaded.lane_chains[0].x[0](0, 1), -0.125);
  ASSERT_EQ(loaded.lane_chains[0].y.size(), 3u);
  EXPECT_EQ(loaded.lane_chains[0].y[2], 1.0 / 3.0);  // %.17g round-trips bitwise
}

TEST(SweepCheckpoint, MissingOrCorruptFilesFailSoft) {
  EXPECT_TRUE(sweep::load_checkpoint("no_such_checkpoint_file.txt").empty());

  const char* path = "resilience_ckpt_corrupt.txt";
  const char* point = "point 2 1 0 7 0 0 0.25 1e-9 3\n";
  const std::string inputs[] = {
      "point 2 1 truncated",
      // A non-square warm-chain block: the restore would read it as 3 x 3.
      std::string(point) + "lane 0 1 42\nx 1\nm 3 1 1 0 0\nz 1\nm 1 1 1\ny 0\nw 0\n",
      // Rejected before the 2^32-element allocation, not after.
      std::string(point) + "lane 0 1 42\nx 1\nm 65536 65536\n",
  };
  for (const std::string& body : inputs) {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "soslock-sweep-checkpoint v1\ngrid 6 1\n%s", body.c_str());
    std::fclose(f);
    EXPECT_TRUE(sweep::load_checkpoint(path).empty()) << body;
  }
  std::remove(path);
}

TEST(SweepCheckpoint, KillAndResumeIsVerdictIdentical) {
  const sweep::Grid grid(pll::Params::paper_third_order(),
                         {{sweep::Axis::Ip, 3, 400e-6, 600e-6, 5e-6},
                          {sweep::Axis::Kv, 2, 160.0, 240.0, 2.0}});
  const sweep::CertificationQuery query = sweep::lyapunov_query();
  sweep::SweepOptions options;
  options.solver.backend = "ipm";
  options.threads = 1;

  const sweep::SweepReport full = sweep::run_sweep(grid, query, options);
  ASSERT_EQ(full.skipped, 0u);

  const char* path = "resilience_ckpt_sweep.txt";
  sweep::SweepOptions kill = options;
  kill.checkpoint_path = path;
  kill.max_points = 3;
  const sweep::SweepReport killed = sweep::run_sweep(grid, query, kill);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.skipped, grid.size() - 3);

  sweep::SweepOptions resume = options;
  resume.resume_from = path;
  const sweep::SweepReport resumed = sweep::run_sweep(grid, query, resume);
  std::remove(path);
  EXPECT_EQ(resumed.resumed_points, 3u);
  EXPECT_EQ(resumed.skipped, 0u);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.certified, full.certified);
  // Verdict-identical per point, and the replayed warm chain makes the
  // re-solved tail spend exactly the iterations the uninterrupted run did.
  ASSERT_EQ(resumed.points.size(), full.points.size());
  for (std::size_t i = 0; i < full.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i].certified, full.points[i].certified) << "point " << i;
    EXPECT_EQ(resumed.points[i].iterations, full.points[i].iterations) << "point " << i;
  }
  EXPECT_EQ(resumed.total_iterations, full.total_iterations);
}

}  // namespace
}  // namespace soslock
