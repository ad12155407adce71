// Tests for the certification sweep service (src/sweep): grid enumeration
// and parameter substitution, report totals and telemetry consistency on a
// small all-certified sweep, budget/cancellation skipping, and the
// warm-chaining correctness regressions across a real verdict boundary (an
// inverted-polarity pump): a chained certificate must never carry a verdict
// across the feasibility boundary — certified→uncertified triggers a cold
// restart, uncertified→certified starts cold because uncertified points
// never donate.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "sweep/grid.hpp"
#include "sweep/query.hpp"
#include "sweep/service.hpp"

namespace soslock {
namespace {

sweep::SweepOptions ipm_options() {
  sweep::SweepOptions options;
  options.solver.backend = "ipm";
  options.threads = 1;
  return options;
}

TEST(SweepGrid, MixedRadixEnumerationRoundTrips) {
  const sweep::Grid grid(pll::Params::paper_third_order(),
                         {{sweep::Axis::Ip, 3, 1e-4, 3e-4, 5e-6},
                          {sweep::Axis::Kv, 2, 100.0, 200.0, 0.0},
                          {sweep::Axis::R, 4, 7e3, 9e3, 0.0}});
  ASSERT_EQ(grid.size(), 24u);
  ASSERT_EQ(grid.dims(), 3u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::vector<std::size_t> c = grid.coords(i);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(grid.index(c), i);
  }
  // Axis 0 is the fastest digit: consecutive indices are ip-neighbors.
  EXPECT_EQ(grid.coords(0), (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(grid.coords(1), (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_EQ(grid.coords(3), (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(grid.coords(6), (std::vector<std::size_t>{0, 0, 1}));

  // Endpoint + even-spacing of the midpoints.
  EXPECT_DOUBLE_EQ(grid.axis_value(0, 0), 1e-4);
  EXPECT_DOUBLE_EQ(grid.axis_value(0, 2), 3e-4);
  EXPECT_DOUBLE_EQ(grid.axis_value(2, 1), 7e3 + 2e3 / 3.0);

  EXPECT_THROW(sweep::Grid(pll::Params::paper_third_order(), {{sweep::Axis::Ip, 0, 0, 1, 0}}),
               std::invalid_argument);
}

TEST(SweepGrid, ParamsSubstitutesSweptIntervalsOnly) {
  const pll::Params base = pll::Params::paper_third_order();
  const sweep::Grid grid(base, {{sweep::Axis::Ip, 3, 1e-4, 3e-4, 5e-6},
                                {sweep::Axis::Kv, 2, 100.0, 200.0, 0.0}});
  const std::size_t idx = grid.index({2, 1});
  const pll::Params p = grid.params(idx);
  EXPECT_DOUBLE_EQ(p.ip.lo, 3e-4 - 5e-6);
  EXPECT_DOUBLE_EQ(p.ip.hi, 3e-4 + 5e-6);
  EXPECT_DOUBLE_EQ(p.kv.lo, 200.0);
  EXPECT_DOUBLE_EQ(p.kv.hi, 200.0);
  // Untouched axes keep the base design.
  EXPECT_DOUBLE_EQ(p.r.lo, base.r.lo);
  EXPECT_DOUBLE_EQ(p.c1.hi, base.c1.hi);
  EXPECT_DOUBLE_EQ(p.f_ref, base.f_ref);

  // A single-step axis pins the midpoint of [lo, hi].
  const sweep::Grid pinned(base, {{sweep::Axis::Kv, 1, 100.0, 300.0, 2.0}});
  EXPECT_DOUBLE_EQ(pinned.params(0).kv.lo, 200.0 - 2.0);
  EXPECT_DOUBLE_EQ(pinned.params(0).kv.hi, 200.0 + 2.0);
}

TEST(SweepService, ReportTotalsAndTelemetryAreConsistent) {
  // 3 x 2 paper neighborhood: every point certifies; after the first point
  // every compile must take the in-place update path and every solve after
  // the first must chain warm.
  const sweep::Grid grid(pll::Params::paper_third_order(),
                         {{sweep::Axis::Ip, 3, 400e-6, 600e-6, 5e-6},
                          {sweep::Axis::Kv, 2, 160.0, 240.0, 2.0}});
  const sweep::SweepReport report =
      sweep::run_sweep(grid, sweep::lyapunov_query(), ipm_options());

  ASSERT_EQ(report.points.size(), grid.size());
  EXPECT_EQ(report.certified + report.uncertified + report.skipped, grid.size());
  EXPECT_EQ(report.certified, grid.size());
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_FALSE(report.interrupted);
  EXPECT_GT(report.total_iterations, 0);
  EXPECT_GT(report.certificates_per_second(), 0.0);

  // Recompile-free hot path: one full pipeline run, then updates only.
  EXPECT_EQ(report.full_lowerings, 1u);
  EXPECT_EQ(report.updates, grid.size() - 1 + report.cold_restarts);
  EXPECT_EQ(report.warm_hits, grid.size() - 1 - report.cold_restarts);
  EXPECT_GT(report.warm_hit_rate(), 0.5);

  // Per-point records are in grid order and match the aggregate.
  std::size_t warm_hits = 0;
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const sweep::PointRecord& rec = report.points[i];
    EXPECT_EQ(rec.index, i);
    EXPECT_TRUE(rec.certified);
    EXPECT_EQ(rec.values.size(), 2u);
    warm_hits += rec.warm_hit ? 1 : 0;
  }
  EXPECT_EQ(warm_hits, report.warm_hits);

  // Derived artifacts: one CSV row per point, a map with a certified glyph.
  EXPECT_EQ(report.csv(grid).rows(), grid.size());
  EXPECT_NE(report.stability_map(grid).find('#'), std::string::npos);
  EXPECT_FALSE(report.summary().empty());

  // Chaining off: same verdicts, zero warm hits.
  sweep::SweepOptions cold = ipm_options();
  cold.warm_chaining = false;
  const sweep::SweepReport cold_report =
      sweep::run_sweep(grid, sweep::lyapunov_query(), cold);
  EXPECT_EQ(cold_report.certified, grid.size());
  EXPECT_EQ(cold_report.warm_hits, 0u);
  EXPECT_EQ(cold_report.cold_restarts, 0u);
}

TEST(SweepService, ExhaustedBudgetSkipsRemainingPoints) {
  const sweep::Grid grid(pll::Params::paper_third_order(),
                         {{sweep::Axis::Ip, 4, 400e-6, 600e-6, 5e-6}});
  sweep::SweepOptions options = ipm_options();
  options.time_budget_seconds = 1e-9;  // gone before the first point
  const sweep::SweepReport report =
      sweep::run_sweep(grid, sweep::lyapunov_query(), options);
  EXPECT_GE(report.skipped, grid.size() - 1);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.certified + report.uncertified + report.skipped, grid.size());
  for (const sweep::PointRecord& rec : report.points) {
    if (rec.skipped) {
      EXPECT_FALSE(rec.certified);
    }
  }
}

TEST(SweepService, SolverTimeBudgetBoundsEveryPointSolve) {
  // SweepOptions::solver.time_budget_seconds is the per-point solve budget:
  // at 1e-9 s every solve stops at its first budget check, so no point
  // certifies and every solved point reports Interrupted.
  const sweep::Grid grid(pll::Params::paper_third_order(),
                         {{sweep::Axis::Ip, 4, 400e-6, 600e-6, 5e-6}});
  sweep::SweepOptions options = ipm_options();
  options.solver.time_budget_seconds = 1e-9;
  const sweep::SweepReport report =
      sweep::run_sweep(grid, sweep::lyapunov_query(), options);
  EXPECT_EQ(report.certified, 0u);
  EXPECT_TRUE(report.interrupted);
  std::size_t solved = 0;
  for (const sweep::PointRecord& rec : report.points) {
    if (rec.skipped) continue;
    ++solved;
    EXPECT_FALSE(rec.certified) << rec.index;
    EXPECT_EQ(rec.status, sdp::SolveStatus::Interrupted) << rec.index;
  }
  EXPECT_GT(solved, 0u);
}

TEST(SweepService, CancellationSkipsEverything) {
  const sweep::Grid grid(pll::Params::paper_third_order(),
                         {{sweep::Axis::Ip, 3, 400e-6, 600e-6, 5e-6}});
  std::atomic<bool> cancel{true};
  sweep::SweepOptions options = ipm_options();
  options.cancel = &cancel;
  const sweep::SweepReport report =
      sweep::run_sweep(grid, sweep::lyapunov_query(), options);
  EXPECT_EQ(report.skipped, grid.size());
  EXPECT_EQ(report.certified, 0u);
  EXPECT_TRUE(report.interrupted);
}

TEST(SweepService, VerdictFlipTriggersColdRestartAndBreaksTheChain) {
  // The satellite-2 regression on a *real* verdict boundary: an inverted
  // pump polarity (ip < 0) makes the averaged loop positive feedback
  // (char-poly constant term a*rho*kappa < 0), so negative pump points are
  // genuinely uncertifiable while positive ones certify. Values are chosen
  // well away from zero so the SOS verdict is unambiguous.
  const pll::Params base = pll::Params::paper_third_order();
  const sweep::CertificationQuery query = sweep::lyapunov_query();

  // Certified → uncertified (descending ip): the flip point's warm attempt
  // inherits a certified donor, must be re-solved cold before the
  // uncertified verdict stands.
  {
    const sweep::Grid grid(base, {{sweep::Axis::Ip, 4, 400e-6, -400e-6, 0.0}});
    const sweep::SweepReport report = sweep::run_sweep(grid, query, ipm_options());
    ASSERT_EQ(report.points.size(), 4u);
    EXPECT_TRUE(report.points[0].certified);   // ip = +400u, cold start
    EXPECT_TRUE(report.points[1].certified);   // ip = +133u, chained
    EXPECT_TRUE(report.points[1].warm_hit);
    EXPECT_FALSE(report.points[2].certified);  // ip = -133u: the boundary
    EXPECT_TRUE(report.points[2].cold_restart);
    EXPECT_FALSE(report.points[2].warm_hit);   // verdict came from the cold solve
    EXPECT_FALSE(report.points[3].certified);  // ip = -400u
    EXPECT_FALSE(report.points[3].warm_hit);   // chain broken at the boundary
    EXPECT_FALSE(report.points[3].cold_restart);
    EXPECT_EQ(report.certified, 2u);
    EXPECT_EQ(report.uncertified, 2u);
    EXPECT_EQ(report.cold_restarts, 1u);
  }

  // Uncertified → certified (ascending ip): uncertified points never donate,
  // so the first certified point after the boundary must start cold — a
  // chained blob from the infeasible side could otherwise poison it.
  {
    const sweep::Grid grid(base, {{sweep::Axis::Ip, 4, -400e-6, 400e-6, 0.0}});
    const sweep::SweepReport report = sweep::run_sweep(grid, query, ipm_options());
    ASSERT_EQ(report.points.size(), 4u);
    EXPECT_FALSE(report.points[0].certified);
    EXPECT_FALSE(report.points[1].certified);
    EXPECT_TRUE(report.points[2].certified);   // first feasible point
    EXPECT_FALSE(report.points[2].warm_hit);   // ...starts cold: no donor
    EXPECT_FALSE(report.points[2].cold_restart);
    EXPECT_TRUE(report.points[3].certified);
    EXPECT_TRUE(report.points[3].warm_hit);    // chain resumes inside the region
    EXPECT_EQ(report.warm_hits, 1u);
  }
}

}  // namespace
}  // namespace soslock
