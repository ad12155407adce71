// Tests for the solver-backend API: lookup by name, auto-selection,
// IPM-vs-ADMM parity, SolveContext controls (cancellation, budget,
// telemetry), and batched parallel SOS solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "linalg/eigen_sym.hpp"
#include "sdp/admm.hpp"
#include "sdp/ipm.hpp"
#include "sdp/solver.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace soslock {
namespace {

using linalg::Matrix;
using sdp::Problem;
using sdp::Row;
using sdp::Solution;
using sdp::SolveStatus;
using sdp::SparseSym;

/// Random feasible min-trace SDP: b = A(X*) for a random PSD X*.
Problem random_feasible_sdp(std::uint64_t seed, std::size_t n = 0, std::size_t m = 0) {
  util::Rng rng(seed);
  if (n == 0) n = 4 + rng.index(4);
  if (m == 0) m = 3 + rng.index(5);
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

TEST(SolverRegistry, MakeSolverByName) {
  EXPECT_EQ(sdp::make_solver("ipm")->name(), "ipm");
  EXPECT_EQ(sdp::make_solver("admm")->name(), "admm");
  EXPECT_EQ(sdp::make_solver("auto")->name(), "auto");
}

TEST(SolverRegistry, UnknownBackendThrows) {
  EXPECT_THROW(sdp::make_solver("no-such-solver"), std::invalid_argument);
}

TEST(SolverRegistry, ConfigSharedFieldsOverrideBackendOptions) {
  sdp::SolverConfig config;
  config.tolerance = 1e-4;
  config.max_iterations = 7;
  EXPECT_DOUBLE_EQ(config.resolved_ipm().tolerance, 1e-4);
  EXPECT_EQ(config.resolved_ipm().max_iterations, 7);
  EXPECT_DOUBLE_EQ(config.resolved_admm().tolerance, 1e-4);
  EXPECT_EQ(config.resolved_admm().max_iterations, 7);
  // Zero keeps the per-backend defaults (which differ by orders of magnitude).
  const sdp::SolverConfig defaults;
  EXPECT_EQ(defaults.resolved_ipm().max_iterations, sdp::IpmOptions{}.max_iterations);
  EXPECT_EQ(defaults.resolved_admm().max_iterations, sdp::AdmmOptions{}.max_iterations);
}

TEST(AutoSelection, SmallBlocksUseIpmLargeBlocksUseAdmm) {
  const sdp::SolverConfig config;  // auto_block_threshold = 80
  Problem small;
  small.add_block(10);
  EXPECT_EQ(sdp::auto_backend_for(small, config), "ipm");

  Problem large;
  large.add_block(10);
  large.add_block(120);
  EXPECT_EQ(sdp::auto_backend_for(large, config), "admm");

  sdp::SolverConfig tight = config;
  tight.auto_block_threshold = 8;
  EXPECT_EQ(sdp::auto_backend_for(small, tight), "admm");
}

TEST(AutoSelection, DelegatesAndReportsDelegateBackend) {
  sdp::SolverConfig config;
  config.backend = "auto";
  const auto solver = sdp::make_solver(config);
  const Solution sol = solver->solve(random_feasible_sdp(5));
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_EQ(sol.backend, "ipm");  // small blocks delegate to the IPM
}

// The acceptance bar of the backend redesign: both backends solve the same
// random feasible SDPs and agree on the optimal value.
class BackendParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackendParity, IpmAndAdmmAgreeOnObjective) {
  const Problem p = random_feasible_sdp(GetParam());
  sdp::AdmmOptions admm_options;
  admm_options.tolerance = 1e-7;
  const Solution si = sdp::IpmSolver().solve(p);
  const Solution sa = sdp::AdmmSolver(admm_options).solve(p);
  ASSERT_EQ(si.status, SolveStatus::Optimal);
  ASSERT_EQ(sa.status, SolveStatus::Optimal);
  const double scale = 1.0 + std::fabs(si.primal_objective);
  EXPECT_LT(std::fabs(si.primal_objective - sa.primal_objective) / scale, 1e-4);
  EXPECT_LT(sa.primal_residual, 1e-6);
  EXPECT_LT(sa.gap, 1e-6);
  // The ADMM multiplier update keeps the primal block exactly PSD.
  EXPECT_GT(linalg::min_eigenvalue(sa.x[0]), -1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendParity, ::testing::Range<std::uint64_t>(1, 9));

TEST(Admm, FreeVariableEquality) {
  // min w s.t. w - x11 = 0, x11 = 2  =>  w = 2 (free-variable dual rows).
  Problem p;
  const std::size_t b = p.add_block(1);
  const std::size_t w = p.add_free(1.0);
  {
    Row row;
    SparseSym a;
    a.add(0, 0, -1.0);
    row.blocks[b] = a;
    row.free_coeffs[w] = 1.0;
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
  const Solution sol = sdp::AdmmSolver().solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.w[0], 2.0, 1e-4);
}

TEST(SolveContext, CancellationInterruptsBothBackends) {
  const Problem p = random_feasible_sdp(7);
  std::atomic<bool> cancel{true};  // pre-cancelled: stop on the first check
  for (const char* name : {"ipm", "admm"}) {
    sdp::SolveContext context;
    context.cancel = &cancel;
    const Solution sol = sdp::make_solver(name)->solve(p, context);
    EXPECT_EQ(sol.status, SolveStatus::Interrupted) << name;
    EXPECT_LE(sol.iterations, 1) << name;
  }
}

TEST(SolveContext, WallClockBudgetInterrupts) {
  const Problem p = random_feasible_sdp(8);
  sdp::SolveContext context;
  context.time_budget_seconds = 1e-9;  // expires before the first iteration
  const Solution sol = sdp::IpmSolver().solve(p, context);
  EXPECT_EQ(sol.status, SolveStatus::Interrupted);
}

TEST(SolveContext, TelemetryCallbackSeesEveryIteration) {
  const Problem p = random_feasible_sdp(9);
  sdp::SolveContext context;
  int calls = 0;
  int last_iteration = -1;
  context.on_iteration = [&](const sdp::IterationInfo& info) {
    EXPECT_EQ(info.iteration, calls);
    last_iteration = info.iteration;
    ++calls;
  };
  const Solution sol = sdp::IpmSolver().solve(p, context);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(last_iteration, sol.iterations);
}

TEST(SolveContext, BackendAndTimingRecordedInSolution) {
  const Problem p = random_feasible_sdp(10);
  const Solution sol = sdp::AdmmSolver().solve(p);
  EXPECT_EQ(sol.backend, "admm");
  EXPECT_GE(sol.solve_seconds, 0.0);
}

// --- SOS-layer integration ------------------------------------------------

sos::SosProgram motzkin_like_program() {
  // 2x^4 + 2x^3 y - x^2 y^2 + 5y^4 is SOS; a small Gram feasibility program.
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

TEST(SosBackends, AdmmSolvesSosProgramAndPassesAudit) {
  const sos::SosProgram prog = motzkin_like_program();
  sdp::SolverConfig config;
  config.backend = "admm";
  const sos::SolveResult result = prog.solve(config);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.sdp.backend, "admm");
  EXPECT_TRUE(sos::audit(prog, result).ok);
}

TEST(SosBackends, SolveStatsAggregateAcrossBackends) {
  sos::SolveStats stats;
  EXPECT_EQ(stats.str(), "");
  sos::SolveResult a;
  a.sdp.backend = "ipm";
  a.sdp.iterations = 10;
  a.sdp.solve_seconds = 0.5;
  stats.absorb(a);
  EXPECT_EQ(stats.backend, "ipm");
  sos::SolveResult b;
  b.sdp.backend = "admm";
  b.sdp.iterations = 100;
  stats.absorb(b);
  EXPECT_EQ(stats.backend, "mixed");
  EXPECT_EQ(stats.solves, 2);
  EXPECT_EQ(stats.iterations, 110);
  EXPECT_NE(stats.str().find("backend=mixed"), std::string::npos);

  sos::SolveStats other;
  other.backend = "ipm";
  other.solves = 3;
  stats.merge(other);
  EXPECT_EQ(stats.solves, 5);
}

TEST(BatchedSolves, MatchesSequentialResults) {
  // N independent copies of the same feasibility program solved concurrently
  // on the pool (the batched per-mode stages' pattern) must produce the same
  // status/objective as solving them one by one.
  std::vector<sos::SosProgram> programs;
  for (int i = 0; i < 4; ++i) programs.push_back(motzkin_like_program());

  const util::ThreadPool pool(4);
  EXPECT_GE(pool.threads(), 1u);
  const sdp::SolverConfig config = sdp::share_threads({}, pool.threads());
  std::vector<sos::SolveResult> results(programs.size());
  pool.run_all(programs.size(),
               [&](std::size_t i) { results[i] = programs[i].solve(config); });
  ASSERT_EQ(results.size(), 4u);
  const sos::SolveResult reference = programs.front().solve();
  for (const sos::SolveResult& r : results) {
    EXPECT_EQ(r.status, reference.status);
    EXPECT_TRUE(r.feasible);
    EXPECT_NEAR(r.objective, reference.objective, 1e-6);
  }
}

TEST(BatchedSolves, ShareThreadsDividesThreadsAcrossWorkers) {
  sdp::SolverConfig config;
  config.threads = 8;
  // 4 concurrent solves share the 8 backend threads: 2 each.
  EXPECT_EQ(sdp::share_threads(config, 4).threads, 2u);
  // A 4-worker pool runs at most 4 of 100 tasks at once.
  const std::size_t workers = std::min<std::size_t>(util::ThreadPool(4).threads(), 100);
  EXPECT_EQ(sdp::share_threads(config, workers).threads, 2u);
  // More workers than threads: floor at 1, never oversubscribe to 0.
  config.threads = 2;
  EXPECT_EQ(sdp::share_threads(config, 4).threads, 1u);
  // The serial default stays serial regardless of batch width.
  config.threads = 1;
  EXPECT_EQ(sdp::share_threads(config, 4).threads, 1u);
  // A single-program batch passes the request through unchanged.
  config.threads = 8;
  EXPECT_EQ(sdp::share_threads(config, 1).threads, 8u);
}

// --- multi-threaded determinism ----------------------------------------------

TEST(Threading, AdmmDeterministicAcrossThreadCounts) {
  const Problem p = random_feasible_sdp(7, 12, 10);
  sdp::AdmmOptions options;
  options.max_iterations = 600;
  const Solution a = sdp::AdmmSolver(options, 1).solve(p);
  const Solution b = sdp::AdmmSolver(options, 4).solve(p);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.primal_objective, b.primal_objective);
  ASSERT_EQ(a.y.size(), b.y.size());
  for (std::size_t i = 0; i < a.y.size(); ++i) EXPECT_EQ(a.y[i], b.y[i]) << "y[" << i << "]";
}

TEST(Threading, ConfigThreadsReachesBackends) {
  sdp::SolverConfig config;
  config.backend = "admm";
  config.threads = 3;
  const std::unique_ptr<sdp::SolverBackend> solver = sdp::make_solver(config);
  EXPECT_EQ(dynamic_cast<const sdp::AdmmSolver&>(*solver).threads(), 3u);
}

TEST(PhaseTimers, BackendsRecordPhaseBreakdown) {
  const Problem p = random_feasible_sdp(13, 12, 16);
  const Solution ipm = sdp::IpmSolver().solve(p);
  EXPECT_GT(ipm.phase.total(), 0.0);
  EXPECT_GT(ipm.phase.schur, 0.0);
  EXPECT_GT(ipm.phase.factor, 0.0);
  EXPECT_GT(ipm.phase.eig, 0.0);
  EXPECT_GT(ipm.phase.recover, 0.0);
  EXPECT_LE(ipm.phase.total(), ipm.solve_seconds + 1e-9);

  sdp::AdmmOptions aopt;
  aopt.max_iterations = 200;
  const Solution admm = sdp::AdmmSolver(aopt).solve(p);
  EXPECT_GT(admm.phase.eig, 0.0);  // PSD projections dominate
  EXPECT_GT(admm.phase.factor, 0.0);
  EXPECT_LE(admm.phase.total(), admm.solve_seconds + 1e-9);
}

TEST(PhaseTimers, AggregateIntoSolveStats) {
  sos::SosProgram prog = motzkin_like_program();
  const sos::SolveResult result = prog.solve();
  sos::SolveStats stats;
  stats.absorb(result);
  EXPECT_GT(stats.phase.total(), 0.0);
  sos::SolveStats merged;
  merged.merge(stats);
  merged.merge(stats);
  EXPECT_NEAR(merged.phase.total(), 2.0 * stats.phase.total(), 1e-12);
}

TEST(TimingTable, ConcurrentAddsAreLossless) {
  util::TimingTable table;
  constexpr int kThreads = 4, kPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&table] {
      for (int i = 0; i < kPerThread; ++i) table.add("row", 0.001, "note");
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(table.entries().size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_NEAR(table.total_seconds(), kThreads * kPerThread * 0.001, 1e-9);
}

}  // namespace
}  // namespace soslock
