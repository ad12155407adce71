// End-to-end inevitability pipeline tests (Algorithm 1) on the CP PLL
// models, plus a small synthetic system.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "hybrid/system.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"

namespace soslock::core {
namespace {

using poly::Polynomial;

Polynomial ellipsoid(std::size_t nvars, const std::vector<double>& semiaxes) {
  Polynomial b(nvars);
  for (std::size_t i = 0; i < semiaxes.size(); ++i) {
    const Polynomial x = Polynomial::variable(nvars, i);
    b += (1.0 / (semiaxes[i] * semiaxes[i])) * x * x;
  }
  b -= Polynomial::constant(nvars, 1.0);
  b *= 0.5;
  return b;
}

PipelineOptions pll3_options() {
  PipelineOptions opt;
  opt.lyapunov.certificate_degree = 2;
  opt.lyapunov.flow_decrease = FlowDecrease::Strict;
  opt.lyapunov.strict_margin = 1e-4;
  opt.lyapunov.maximize_region = true;
  opt.advection.h = 0.01;
  opt.advection.gamma = 0.008;
  opt.advection.eps = 0.3;
  opt.max_advection_iterations = 12;
  return opt;
}

TEST(Pipeline, AveragedPll3VerifiedByAdvection) {
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order());
  const Polynomial b_init = ellipsoid(m.system.nvars(), {5.0, 4.2, 0.9});
  const PipelineReport report =
      InevitabilityVerifier(pll3_options()).verify(m.system, b_init);
  EXPECT_EQ(report.verdict, Verdict::VerifiedByAdvection) << report.summary();
  EXPECT_GE(report.advection_iterations, 1);
  EXPECT_TRUE(report.lyapunov.audit.ok);
  EXPECT_GT(report.levels.consistent_level, 0.0);
  // Every advection iterate contains the origin.
  for (const Polynomial& b : report.advection_iterates) {
    EXPECT_LT(b.eval(linalg::Vector(m.system.nvars(), 0.0)), 0.0);
  }
}

TEST(Pipeline, AveragedPll3EscapeFallback) {
  // A wider initial set cannot immerse within a small iteration budget; the
  // escape certificate must close the argument (Algorithm 1 lines 13-18).
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order());
  const Polynomial b_init = ellipsoid(m.system.nvars(), {6.5, 5.5, 0.95});
  PipelineOptions opt = pll3_options();
  opt.max_advection_iterations = 3;
  opt.escape.certificate_degree = 2;  // E = V-like certificates suffice here
  const PipelineReport report = InevitabilityVerifier(opt).verify(m.system, b_init);
  EXPECT_EQ(report.verdict, Verdict::VerifiedWithEscape) << report.summary();
  EXPECT_GE(report.escape.num_certificates, 1);
}

TEST(Pipeline, AveragedPll4VerifiedWithEscape) {
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_fourth_order());
  const Polynomial b_init = ellipsoid(m.system.nvars(), {6.0, 6.0, 6.0, 0.9});
  PipelineOptions opt;
  opt.lyapunov.certificate_degree = 2;
  opt.lyapunov.flow_decrease = FlowDecrease::Strict;
  opt.lyapunov.strict_margin = 1e-5;
  opt.lyapunov.maximize_region = true;
  opt.advection.h = 0.004;
  opt.advection.gamma = 0.01;
  opt.advection.eps = 0.3;
  opt.max_advection_iterations = 2;  // keep the test fast; the bench runs 7
  const PipelineReport report = InevitabilityVerifier(opt).verify(m.system, b_init);
  EXPECT_EQ(report.verdict, Verdict::VerifiedWithEscape) << report.summary();
}

TEST(Pipeline, FailsOnUnstableSystem) {
  hybrid::HybridSystem sys(1, 0);
  hybrid::Mode mode;
  mode.flow = {Polynomial::variable(1, 0)};
  mode.domain = hybrid::SemialgebraicSet(1);
  mode.domain.add_interval(0, -1.0, 1.0);
  mode.contains_equilibrium = true;
  sys.add_mode(std::move(mode));
  PipelineOptions opt;
  opt.lyapunov.certificate_degree = 2;
  opt.lyapunov.flow_decrease = FlowDecrease::Strict;
  opt.solver.max_iterations = 50;
  const Polynomial b_init = ellipsoid(1, {0.5});
  const PipelineReport report = InevitabilityVerifier(opt).verify(sys, b_init);
  EXPECT_EQ(report.verdict, Verdict::Failed);
}

TEST(Pipeline, SolverConfigReachesEveryStage) {
  // PipelineOptions::solver is the one config every stage solves under:
  // routing it to the first-order backend shows up in all five stages'
  // telemetry (the default "auto" picks the IPM for blocks this small).
  hybrid::HybridSystem sys(2, 0);
  hybrid::Mode mode;
  mode.name = "contract";
  mode.flow = {-1.0 * Polynomial::variable(2, 0), -1.0 * Polynomial::variable(2, 1)};
  mode.domain = hybrid::SemialgebraicSet(2);
  mode.domain.add_interval(0, -2.0, 2.0);
  mode.domain.add_interval(1, -2.0, 2.0);
  mode.contains_equilibrium = true;
  sys.add_mode(std::move(mode));
  PipelineOptions opt;
  opt.lyapunov.certificate_degree = 2;
  opt.escape.certificate_degree = 2;
  opt.max_advection_iterations = 1;  // too few to immerse: escape must run
  opt.advection.eps_retries = 0;
  opt.solver.backend = "admm";
  const PipelineReport report =
      InevitabilityVerifier(opt).verify(sys, ellipsoid(2, {3.0, 0.5}));
  EXPECT_EQ(report.lyapunov.solver.backend, "admm");
  EXPECT_EQ(report.levels.solver.backend, "admm");
  EXPECT_EQ(report.escape.solver.backend, "admm");
  const auto entries = report.timings.entries();
  ASSERT_EQ(entries.size(), 5u);
  for (const auto& entry : entries)
    EXPECT_NE(entry.note.find("backend=admm"), std::string::npos) << entry.name;
}

TEST(Pipeline, TimingRowsMatchTable2Structure) {
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order());
  const Polynomial b_init = ellipsoid(m.system.nvars(), {5.0, 4.2, 0.9});
  const PipelineReport report =
      InevitabilityVerifier(pll3_options()).verify(m.system, b_init);
  ASSERT_EQ(report.verdict, Verdict::VerifiedByAdvection);
  // The paper's Table 2 rows must all be present.
  const auto& entries = report.timings.entries();
  ASSERT_GE(entries.size(), 4u);
  EXPECT_EQ(entries[0].name, "Attractive Invariant");
  EXPECT_EQ(entries[1].name, "Max.Level Curves");
  EXPECT_EQ(entries[2].name, "Advection");
  EXPECT_EQ(entries[3].name, "Checking Set Inclusion");
  for (const auto& entry : entries) EXPECT_GE(entry.seconds, 0.0);
}

TEST(Pipeline, SummaryMentionsVerdict) {
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order());
  const Polynomial b_init = ellipsoid(m.system.nvars(), {1.0, 1.0, 0.2});
  const PipelineReport report =
      InevitabilityVerifier(pll3_options()).verify(m.system, b_init);
  EXPECT_NE(report.summary().find("verdict:"), std::string::npos);
}

}  // namespace
}  // namespace soslock::core
