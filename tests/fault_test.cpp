// Tests for the fault-injection framework (util/fault) and the resilience
// behavior at every injection site:
//
//   * registry mechanics: arm/disarm/reset, fire_after + times windows,
//     traversal/fired counters, callback arming, the known-site table;
//   * each named site, fired deterministically, ends in a successful
//     recovery (RecoveryRecord present) or a typed terminal status — never a
//     hang or a raw uncaught exception: IPM factorization failure, NaN into
//     an IPM/ADMM iterate, lowering-pass exception (caches untouched),
//     structure-cache eviction race.
//
// The scenario tests are skipped when SOSLOCK_FAULTS is compiled out
// (Release); the registry tests always run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "sdp/admm.hpp"
#include "sdp/ipm.hpp"
#include "sdp/lowering.hpp"
#include "sdp/resilience.hpp"
#include "sdp/solver.hpp"
#include "sdp/structure.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace soslock {
namespace {

using linalg::Matrix;
using sdp::Lowering;
using sdp::LoweringOptions;
using sdp::Problem;
using sdp::Solution;
using sdp::SolveStatus;
using util::FaultInjectedError;
using util::FaultInjector;
namespace site = util::fault_site;

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

/// Feasible banded min-trace SDP; chordal decomposition splits it into a
/// chain of small cliques.
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

LoweringOptions chordal_lowering(std::size_t min_block_size) {
  LoweringOptions low;
  low.sparsity = sdp::SparsityOptions::Chordal;
  low.chordal.min_block_size = min_block_size;
  return low;
}

/// Every scenario starts and ends with a clean registry, so a failing test
/// can never leave a site armed for its neighbors.
class FaultScenario : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::reset(); }
  void TearDown() override { FaultInjector::reset(); }
};

TEST(FaultRegistry, UnarmedSitesNeverFireOrCount) {
  FaultInjector::reset();
  EXPECT_FALSE(FaultInjector::should_fire(site::kIpmFactorization));
  EXPECT_EQ(FaultInjector::traversals(site::kIpmFactorization), 0);
  EXPECT_EQ(FaultInjector::fired(site::kIpmFactorization), 0);
}

TEST(FaultRegistry, FireAfterAndTimesWindows) {
  FaultInjector::reset();
  FaultInjector::arm(site::kIterateNan, /*fire_after=*/2, /*times=*/2);
  EXPECT_FALSE(FaultInjector::should_fire(site::kIterateNan));  // traversal 0
  EXPECT_FALSE(FaultInjector::should_fire(site::kIterateNan));  // traversal 1
  EXPECT_TRUE(FaultInjector::should_fire(site::kIterateNan));   // fires
  EXPECT_TRUE(FaultInjector::should_fire(site::kIterateNan));   // fires
  EXPECT_FALSE(FaultInjector::should_fire(site::kIterateNan));  // exhausted
  EXPECT_EQ(FaultInjector::traversals(site::kIterateNan), 5);
  EXPECT_EQ(FaultInjector::fired(site::kIterateNan), 2);

  FaultInjector::disarm(site::kIterateNan);
  EXPECT_FALSE(FaultInjector::should_fire(site::kIterateNan));
  FaultInjector::reset();
  EXPECT_EQ(FaultInjector::traversals(site::kIterateNan), 0);
}

TEST(FaultRegistry, CallbackRunsInsteadOfFiring) {
  FaultInjector::reset();
  int calls = 0;
  FaultInjector::arm_callback(site::kLoweringPass, [&calls] { ++calls; });
  // The callback replaces the effect: the site observes "no fault", but the
  // hook (e.g. a test's cancellation trigger) runs exactly once.
  EXPECT_FALSE(FaultInjector::should_fire(site::kLoweringPass));
  EXPECT_FALSE(FaultInjector::should_fire(site::kLoweringPass));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(FaultInjector::fired(site::kLoweringPass), 1);
  FaultInjector::reset();
}

TEST(FaultRegistry, KnownSitesCoverTheInjectionTable) {
  const std::vector<std::string> expected = {site::kIpmFactorization, site::kIterateNan,
                                             site::kLoweringPass, site::kCacheEvict};
  EXPECT_EQ(FaultInjector::known_sites(), expected);
}

TEST_F(FaultScenario, IpmFactorizationFaultIsTypedNotThrown) {
  if (!kFaultsCompiled) GTEST_SKIP() << "SOSLOCK_FAULTS compiled out";
  FaultInjector::arm(site::kIpmFactorization);
  sdp::SolveContext context;
  const Solution sol = sdp::IpmSolver().solve(random_feasible_sdp(11), context);
  EXPECT_EQ(sol.status, SolveStatus::NumericalProblem);
  EXPECT_EQ(sol.faulted_phase, "factor");
  EXPECT_EQ(FaultInjector::fired(site::kIpmFactorization), 1);
}

TEST_F(FaultScenario, ResilientSolveRetriesPastIpmFactorizationFault) {
  if (!kFaultsCompiled) GTEST_SKIP() << "SOSLOCK_FAULTS compiled out";
  FaultInjector::arm(site::kIpmFactorization);
  sdp::SolveContext context;
  sdp::SolverConfig config;
  config.backend = "ipm";
  const Solution sol = sdp::resilient_solve(random_feasible_sdp(11), context, config);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  ASSERT_FALSE(sol.recoveries.empty());
  EXPECT_EQ(sol.recoveries[0].action, "retry");
  EXPECT_EQ(sol.recoveries[0].from, "ipm");
  EXPECT_EQ(sol.recoveries[0].to, "ipm");
  EXPECT_NE(sol.recoveries[0].reason.find("NumericalProblem"), std::string::npos);
}

TEST_F(FaultScenario, IpmIterateNanTripsTheWatchdog) {
  if (!kFaultsCompiled) GTEST_SKIP() << "SOSLOCK_FAULTS compiled out";
  FaultInjector::arm(site::kIterateNan, /*fire_after=*/2);
  sdp::SolveContext context;
  const Solution sol = sdp::IpmSolver().solve(random_feasible_sdp(7), context);
  EXPECT_EQ(sol.status, SolveStatus::Diverged);
  EXPECT_FALSE(sol.faulted_phase.empty());

  // The same failure through the resilience layer recovers on the retry.
  FaultInjector::reset();
  FaultInjector::arm(site::kIterateNan, /*fire_after=*/2);
  sdp::SolveContext retry_context;
  sdp::SolverConfig config;
  config.backend = "ipm";
  const Solution rescued =
      sdp::resilient_solve(random_feasible_sdp(7), retry_context, config);
  EXPECT_EQ(rescued.status, SolveStatus::Optimal);
  ASSERT_FALSE(rescued.recoveries.empty());
  EXPECT_NE(rescued.recoveries[0].reason.find("Diverged"), std::string::npos);
}

TEST_F(FaultScenario, AdmmIterateNanBailsWithPhaseNamed) {
  if (!kFaultsCompiled) GTEST_SKIP() << "SOSLOCK_FAULTS compiled out";
  const Lowering low = sdp::lower(banded_sdp(20), chordal_lowering(8));
  ASSERT_TRUE(low.decomposed());
  FaultInjector::arm(site::kIterateNan, /*fire_after=*/3);
  sdp::AdmmOptions opt;
  sdp::SolveContext context;
  const Solution sol = sdp::AdmmSolver(opt).solve(low.problem, context);
  // Satellite fix: the poisoned iterate stops at the watchdog (phase named),
  // not after silently burning max_iterations on NaN residuals.
  EXPECT_EQ(sol.status, SolveStatus::Diverged);
  EXPECT_FALSE(sol.faulted_phase.empty());
  EXPECT_LT(sol.iterations, opt.max_iterations);
}

TEST_F(FaultScenario, LoweringPassFaultLeavesCachesUntouched) {
  if (!kFaultsCompiled) GTEST_SKIP() << "SOSLOCK_FAULTS compiled out";
  FaultInjector::arm(site::kLoweringPass);
  EXPECT_THROW(sdp::lower(banded_sdp(22), chordal_lowering(8)), FaultInjectedError);

  // The aborted pipeline published nothing: the same lowering now runs
  // clean, and the lowered problem solves and certifies as usual.
  const Lowering low = sdp::lower(banded_sdp(22), chordal_lowering(8));
  ASSERT_TRUE(low.decomposed());
  sdp::SolveContext context;
  EXPECT_EQ(sdp::AdmmSolver().solve(low.problem, context).status,
            SolveStatus::Optimal);
}

TEST_F(FaultScenario, CacheEvictionRaceNeverCorruptsServedStructures) {
  if (!kFaultsCompiled) GTEST_SKIP() << "SOSLOCK_FAULTS compiled out";
  sdp::StructureCache& cache = sdp::StructureCache::global();
  const Problem p = random_feasible_sdp(99, 6, 5);
  const auto before = cache.telemetry();
  FaultInjector::arm(site::kCacheEvict);
  // Miss path with the whole cache flushed mid-build: the caller's
  // shared_ptr keeps the structure alive and the re-insert is consistent.
  const auto first = cache.get(p);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(FaultInjector::fired(site::kCacheEvict), 1);
  const auto second = cache.get(p);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->fingerprint, first->fingerprint);
  EXPECT_EQ(second->num_rows, p.num_rows());
  const auto after = cache.telemetry();
  EXPECT_GE(after.evictions, before.evictions);
  // And a full solve through the repopulated cache still certifies.
  sdp::SolveContext context;
  EXPECT_EQ(sdp::IpmSolver().solve(p, context).status, SolveStatus::Optimal);
}

}  // namespace
}  // namespace soslock
