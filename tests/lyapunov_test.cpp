// Tests for multiple-Lyapunov certificate synthesis (SOS program 1).
#include <gtest/gtest.h>

#include "core/level_set.hpp"
#include "core/lyapunov.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"

namespace soslock::core {
namespace {

using hybrid::HybridSystem;
using hybrid::Mode;
using hybrid::SemialgebraicSet;
using poly::Polynomial;

HybridSystem stable_linear_2d() {
  HybridSystem sys(2, 0);
  Mode m;
  const Polynomial x = Polynomial::variable(2, 0);
  const Polynomial y = Polynomial::variable(2, 1);
  m.flow = {-1.0 * x + y, -1.0 * x - y};
  m.domain = SemialgebraicSet(2);
  m.domain.add_interval(0, -2.0, 2.0);
  m.domain.add_interval(1, -2.0, 2.0);
  m.contains_equilibrium = true;
  sys.add_mode(std::move(m));
  return sys;
}

TEST(Lyapunov, StableLinearSystemStrict) {
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  const LyapunovResult r = LyapunovSynthesizer(opt).synthesize(stable_linear_2d());
  ASSERT_TRUE(r.success) << r.message;
  ASSERT_EQ(r.certificates.size(), 1u);
  const Polynomial& v = r.certificates.front();
  EXPECT_GT(v.eval({1.0, 0.5}), 0.0);
  EXPECT_LT(v.lie_derivative({-1.0 * Polynomial::variable(2, 0) + Polynomial::variable(2, 1),
                              -1.0 * Polynomial::variable(2, 0) - Polynomial::variable(2, 1)})
                .eval({1.0, 0.5}),
            0.0);
}

TEST(Lyapunov, UnstableSystemRejected) {
  HybridSystem sys(2, 0);
  Mode m;
  m.flow = {Polynomial::variable(2, 0), Polynomial::variable(2, 1)};
  m.domain = SemialgebraicSet(2);
  m.domain.add_interval(0, -1.0, 1.0);
  m.domain.add_interval(1, -1.0, 1.0);
  m.contains_equilibrium = true;
  sys.add_mode(std::move(m));
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  const LyapunovResult r = LyapunovSynthesizer(opt).synthesize(sys);
  EXPECT_FALSE(r.success);
}

TEST(Lyapunov, RejectsOddDegree) {
  LyapunovOptions opt;
  opt.certificate_degree = 3;
  const LyapunovResult r = LyapunovSynthesizer(opt).synthesize(stable_linear_2d());
  EXPECT_FALSE(r.success);
}

HybridSystem switched_linear_surface_guards() {
  // Piecewise-linear system: mode 0 on {x >= 0}, mode 1 on {x <= 0}, guards
  // on the switching surface x = 0 (represented as {x >= 0} ∩ {-x >= 0}).
  // Both subsystems are stable spirals; a common quadratic V exists, and the
  // multiple-certificate machinery must find (possibly equal) V_0, V_1.
  HybridSystem sys(2, 0);
  const Polynomial x = Polynomial::variable(2, 0);
  const Polynomial y = Polynomial::variable(2, 1);
  Mode m0;
  m0.flow = {-0.5 * x + y, -1.0 * x - 0.5 * y};
  m0.domain = SemialgebraicSet(2);
  m0.domain.add_constraint(x);
  m0.domain.add_interval(1, -3.0, 3.0);
  m0.contains_equilibrium = true;
  Mode m1;
  m1.flow = {-0.5 * x + 2.0 * y, -0.5 * x - 0.5 * y};
  m1.domain = SemialgebraicSet(2);
  m1.domain.add_constraint(-1.0 * x);
  m1.domain.add_interval(1, -3.0, 3.0);
  m1.contains_equilibrium = true;
  sys.add_mode(std::move(m0));
  sys.add_mode(std::move(m1));

  SemialgebraicSet surface(2);
  surface.add_constraint(x);
  surface.add_constraint(-1.0 * x);
  surface.add_interval(1, -3.0, 3.0);
  sys.add_jump({0, 1, surface, {}, "x=0 down"});
  sys.add_jump({1, 0, surface, {}, "x=0 up"});
  return sys;
}

TEST(Lyapunov, SwitchedSystemMultipleCertificates) {
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-3;
  const LyapunovResult r =
      LyapunovSynthesizer(opt).synthesize(switched_linear_surface_guards());
  ASSERT_TRUE(r.success) << r.message;
  ASSERT_EQ(r.certificates.size(), 2u);
  // Each V decreases along its own mode's flow at an interior sample point.
  const Polynomial x = Polynomial::variable(2, 0);
  const Polynomial y = Polynomial::variable(2, 1);
  EXPECT_LT(r.certificates[0]
                .lie_derivative({-0.5 * x + y, -1.0 * x - 0.5 * y})
                .eval({0.5, 0.5}),
            0.0);
  EXPECT_LT(r.certificates[1]
                .lie_derivative({-0.5 * x + 2.0 * y, -0.5 * x - 0.5 * y})
                .eval({-0.5, 0.5}),
            0.0);
}

TEST(Lyapunov, CommonCertificateOption) {
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.common_certificate = true;
  opt.flow_decrease = FlowDecrease::Strict;
  const LyapunovResult r =
      LyapunovSynthesizer(opt).synthesize(switched_linear_surface_guards());
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_TRUE((r.certificates[0] - r.certificates[1]).is_zero());
}

TEST(Lyapunov, AveragedPll3StrictQuadratic) {
  // The continuized model is strictly asymptotically stable: strict margins
  // must be feasible (companion statement to the rigor note in DESIGN.md).
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order());
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-4;
  const LyapunovResult r = LyapunovSynthesizer(opt).synthesize(m.system);
  EXPECT_TRUE(r.success) << r.message;
}

TEST(Lyapunov, HybridPll3FatGuardAbstractionHasNoCertificate) {
  // Reproduction finding (DESIGN.md): in the Remark-1-reduced 3-mode model
  // with fat mode domains (e in [0, 2] for UP), the pump modes have
  // unbounded dwell, so from (v=0, e=delta) the UP flow overshoots to
  // v2 ~ sqrt(2*rho*delta/kappa). Any positive definite V would need
  // V(exit) <= V(entry), i.e. eps*(2rho/kappa)*delta <= C*delta^2 as
  // delta -> 0 — impossible. The SOS program must therefore be infeasible
  // at every degree; we check degree 4.
  const pll::ReducedModel m = pll::make_reduced(pll::Params::paper_third_order());
  LyapunovOptions opt;
  opt.certificate_degree = 4;
  opt.common_certificate = true;
  opt.flow_decrease = FlowDecrease::NonStrict;
  sdp::SolverConfig config;
  config.max_iterations = 60;
  const LyapunovResult r = LyapunovSynthesizer(opt, config).synthesize(m.system);
  EXPECT_FALSE(r.success);
}

TEST(Lyapunov, AveragedPll3WithPumpIntervalRobust) {
  // The P1 model actually certified by the pipeline: continuized pump with
  // the Table-1 Ip interval as an uncertain parameter (S-procedure box).
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order());
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-4;
  const LyapunovResult r = LyapunovSynthesizer(opt).synthesize(m.system);
  ASSERT_TRUE(r.success) << r.message;
  // Decrease must hold at both (normalized) pump extremes.
  for (double u : {-1.0, 1.0}) {
    const linalg::Vector x = {0.5, -0.3, 0.4};
    const linalg::Vector dx = m.system.eval_flow(0, x, {u});
    // Numerical directional derivative of V along the flow.
    linalg::Vector full(m.system.nvars(), 0.0);
    std::copy(x.begin(), x.end(), full.begin());
    double dv = 0.0;
    for (std::size_t i = 0; i < 3; ++i)
      dv += r.certificates[0].derivative(i).eval(full) * dx[i];
    EXPECT_LT(dv, 0.0) << "u=" << u;
  }
}

TEST(Lyapunov, AveragedPll3RippleNeedsBallExclusion) {
  // With a nonzero continuization ripple the adversarial disturbance defeats
  // exact decrease at the origin; excluding a small ball restores
  // feasibility (practical stability).
  pll::ModelOptions mopt;
  mopt.ripple_bound = 0.05;
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order(), mopt);
  LyapunovOptions strict;
  strict.certificate_degree = 2;
  strict.flow_decrease = FlowDecrease::Strict;
  strict.strict_margin = 1e-3;
  sdp::SolverConfig config;
  config.max_iterations = 60;
  EXPECT_FALSE(LyapunovSynthesizer(strict, config).synthesize(m.system).success);

  LyapunovOptions ball = strict;
  ball.strict_margin = 1e-4;
  ball.exclude_ball_radius = 2.0;  // radius 1.0 is infeasible at this ripple
  const LyapunovResult r = LyapunovSynthesizer(ball, config).synthesize(m.system);
  EXPECT_TRUE(r.success) << r.message;
}

TEST(Lyapunov, VertexRobustMatchesSProcedureBox) {
  // Ablation: interval robustness via vertex enumeration (2 modes, common V)
  // must agree with the S-procedure parameter box on feasibility.
  const pll::ReducedModel vertices =
      pll::make_averaged_vertices(pll::Params::paper_third_order());
  EXPECT_EQ(vertices.system.modes().size(), 2u);
  EXPECT_EQ(vertices.system.nparams(), 0u);
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.common_certificate = true;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-4;
  const LyapunovResult r = LyapunovSynthesizer(opt).synthesize(vertices.system);
  ASSERT_TRUE(r.success) << r.message;
  // The common V decreases under BOTH vertex flows at a sample point.
  linalg::Vector full(vertices.system.nvars(), 0.0);
  full[0] = 0.4;
  full[1] = -0.2;
  full[2] = 0.3;
  for (std::size_t q = 0; q < 2; ++q) {
    const linalg::Vector dx = vertices.system.eval_flow(q, {0.4, -0.2, 0.3}, {});
    double dv = 0.0;
    for (std::size_t i = 0; i < 3; ++i)
      dv += r.certificates[q].derivative(i).eval(full) * dx[i];
    EXPECT_LT(dv, 0.0) << "vertex mode " << q;
  }
}

TEST(Lyapunov, AveragedPll4Quadratic) {
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_fourth_order());
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-5;
  const LyapunovResult r = LyapunovSynthesizer(opt).synthesize(m.system);
  ASSERT_TRUE(r.success) << r.message;
}

TEST(Lyapunov, ModeParallelNoJumpsSolvesDecoupled) {
  // Two stable modes with no jumps: the decoupled path has nothing to
  // re-audit and must accept without falling back to the joint SDP, so the
  // telemetry records exactly one solve per mode.
  HybridSystem sys(2, 0);
  const Polynomial x = Polynomial::variable(2, 0);
  const Polynomial y = Polynomial::variable(2, 1);
  for (double k : {0.5, 1.5}) {
    Mode m;
    m.flow = {-k * x + y, -1.0 * x - k * y};
    m.domain = SemialgebraicSet(2);
    m.domain.add_interval(0, -2.0, 2.0);
    m.domain.add_interval(1, -2.0, 2.0);
    m.contains_equilibrium = true;
    sys.add_mode(std::move(m));
  }
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-3;
  opt.mode_parallel = true;
  sdp::SolverConfig config;
  config.threads = 2;
  const LyapunovResult r = LyapunovSynthesizer(opt, config).synthesize(sys);
  ASSERT_TRUE(r.success) << r.message;
  ASSERT_EQ(r.certificates.size(), 2u);
  EXPECT_EQ(r.solver.solves, 2);  // no jump checks, no joint fallback
  EXPECT_TRUE(r.audit.ok);
}

TEST(Lyapunov, ModeParallelAuditKeepsWorstValues) {
  // Three stable modes, no jumps, cold solves: each decoupled mode program is
  // the joint program of that mode alone, so the combined audit must report
  // the worst residual and Gram eigenvalue of the three single-mode audits.
  HybridSystem sys(2, 0);
  const Polynomial x = Polynomial::variable(2, 0);
  const Polynomial y = Polynomial::variable(2, 1);
  std::vector<HybridSystem> alone;
  for (double k : {0.5, 1.0, 1.5}) {
    Mode m;
    m.flow = {-k * x + y, -1.0 * x - k * y};
    m.domain = SemialgebraicSet(2);
    m.domain.add_interval(0, -2.0, 2.0);
    m.domain.add_interval(1, -2.0, 2.0);
    m.contains_equilibrium = true;
    alone.emplace_back(2, 0);
    alone.back().add_mode(m);
    sys.add_mode(std::move(m));
  }
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-3;
  opt.mode_parallel = true;
  sdp::SolverConfig config;
  config.warm_start = false;
  const LyapunovResult r = LyapunovSynthesizer(opt, config).synthesize(sys);
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_EQ(r.solver.solves, 3);  // decoupled, no fallback
  sos::AuditReport expected;
  for (const HybridSystem& one : alone) {
    const LyapunovResult single = LyapunovSynthesizer(opt, config).synthesize(one);
    ASSERT_TRUE(single.success) << single.message;
    expected.merge(single.audit);
  }
  EXPECT_TRUE(r.audit.ok);
  EXPECT_EQ(r.audit.checked, expected.checked);
  EXPECT_EQ(r.audit.worst_residual, expected.worst_residual);
  // Every Gram of an interior-point iterate is positive definite.
  EXPECT_GT(r.audit.worst_eigenvalue, 0.0);
  EXPECT_EQ(r.audit.worst_eigenvalue, expected.worst_eigenvalue);
}

TEST(Lyapunov, ModeParallelPumpVerticesMatchAcrossThreadCounts) {
  // 3-mode averaged PLL: one mode per pump-current vertex {lo, hi, nom}
  // over the shared voltage box, no jumps, so the per-mode programs are
  // independent. Joint and decoupled synthesis both succeed at degree 4,
  // and the decoupled schedule is deterministic: threads = 1 and 2 give
  // bit-identical certificates and equal iteration counts (37 on avx512),
  // as does the level-set stage on those certificates (68).
  const pll::Params params = pll::Params::paper_third_order();
  pll::ModelOptions nominal;
  nominal.uncertain_pump = false;
  nominal.ripple_bound = 0.0;
  const pll::ReducedModel vertices = pll::make_averaged_vertices(params, nominal);
  const pll::ReducedModel nom = pll::make_averaged(params, nominal);
  HybridSystem sys(nom.system.nstates(), 0);
  sys.set_state_names(nom.system.state_names());
  for (const Mode& m : vertices.system.modes()) sys.add_mode(Mode(m));
  Mode mid = nom.system.modes().front();
  mid.name = "pump-nom";
  sys.add_mode(std::move(mid));
  ASSERT_EQ(sys.modes().size(), 3u);

  LyapunovOptions opt;
  opt.certificate_degree = 4;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-4;
  const LyapunovResult joint = LyapunovSynthesizer(opt).synthesize(sys);
  EXPECT_TRUE(joint.success) << joint.message;

  opt.mode_parallel = true;
  sdp::SolverConfig serial, two;
  two.threads = 2;
  const LyapunovResult a = LyapunovSynthesizer(opt, serial).synthesize(sys);
  const LyapunovResult b = LyapunovSynthesizer(opt, two).synthesize(sys);
  ASSERT_TRUE(a.success) << a.message;
  ASSERT_TRUE(b.success) << b.message;
  EXPECT_EQ(a.certificates, b.certificates);
  EXPECT_EQ(a.solver.solves, b.solver.solves);
  EXPECT_EQ(a.solver.iterations, b.solver.iterations);

  const LevelSetResult levels_a =
      LevelSetMaximizer({}, serial).maximize(sys, a.certificates);
  const LevelSetResult levels_b = LevelSetMaximizer({}, two).maximize(sys, b.certificates);
  ASSERT_TRUE(levels_a.success) << levels_a.message;
  ASSERT_TRUE(levels_b.success) << levels_b.message;
  EXPECT_EQ(levels_a.levels, levels_b.levels);
  EXPECT_EQ(levels_a.solver.iterations, levels_b.solver.iterations);
}

TEST(Lyapunov, ModeParallelWithJumpsStillSound) {
  // Surface-guard switched system: the decoupled certificates must pass the
  // jump re-audit or the synthesizer must fall back to the joint coupled
  // solve — either way the result is a sound set of certificates.
  LyapunovOptions opt;
  opt.certificate_degree = 2;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-3;
  opt.mode_parallel = true;
  const LyapunovResult r =
      LyapunovSynthesizer(opt).synthesize(switched_linear_surface_guards());
  ASSERT_TRUE(r.success) << r.message;
  ASSERT_EQ(r.certificates.size(), 2u);
  EXPECT_TRUE(r.audit.ok);
  // Certificates decrease along their own mode's flow regardless of path.
  const Polynomial x = Polynomial::variable(2, 0);
  const Polynomial y = Polynomial::variable(2, 1);
  EXPECT_LT(r.certificates[0]
                .lie_derivative({-0.5 * x + y, -1.0 * x - 0.5 * y})
                .eval({0.5, 0.5}),
            0.0);
}

TEST(Lyapunov, ModeParallelInfeasibleSystemStillRejected) {
  // The fat-guard 3-mode reduction has no certificate (see
  // HybridPll3FatGuardAbstractionHasNoCertificate): the decoupled path must
  // not manufacture one — the jump re-audit or fallback must reject.
  const pll::ReducedModel m = pll::make_reduced(pll::Params::paper_third_order());
  LyapunovOptions opt;
  opt.certificate_degree = 4;
  opt.flow_decrease = FlowDecrease::NonStrict;
  opt.mode_parallel = true;
  sdp::SolverConfig config;
  config.max_iterations = 60;
  const LyapunovResult r = LyapunovSynthesizer(opt, config).synthesize(m.system);
  EXPECT_FALSE(r.success);
}

TEST(Lyapunov, HybridPll3StrictIdleInfeasible) {
  // DESIGN.md rigor note, demonstrated: strict decrease in the idle mode is
  // impossible (v1 = v2 = v2*, e != 0 are flow equilibria).
  const pll::ReducedModel m = pll::make_reduced(pll::Params::paper_third_order());
  LyapunovOptions opt;
  opt.certificate_degree = 4;
  opt.common_certificate = true;
  opt.flow_decrease = FlowDecrease::Strict;
  opt.strict_margin = 1e-3;
  sdp::SolverConfig config;
  config.max_iterations = 60;
  const LyapunovResult r = LyapunovSynthesizer(opt, config).synthesize(m.system);
  EXPECT_FALSE(r.success);
}

}  // namespace
}  // namespace soslock::core
