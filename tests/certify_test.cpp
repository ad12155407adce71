// Tests for level-set maximisation, Lemma-1 inclusion certificates, bounded
// advection, and escape certificates on systems with known geometry.
#include <gtest/gtest.h>

#include <cmath>

#include "core/advection.hpp"
#include "core/escape.hpp"
#include "core/inclusion.hpp"
#include "core/level_set.hpp"
#include "core/lyapunov.hpp"

namespace soslock::core {
namespace {

using hybrid::HybridSystem;
using hybrid::Mode;
using hybrid::SemialgebraicSet;
using poly::Polynomial;

Polynomial var(std::size_t nvars, std::size_t i) { return Polynomial::variable(nvars, i); }

TEST(LevelSet, UnitBoxQuadratic) {
  // V = x^2 + y^2 inside [-1,1]^2: the largest inscribed sublevel set is the
  // unit disk, c* = 1.
  const Polynomial v = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1);
  SemialgebraicSet box(2);
  box.add_interval(0, -1.0, 1.0);
  box.add_interval(1, -1.0, 1.0);
  const LevelSetResult r = LevelSetMaximizer().maximize_one(v, box);
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_NEAR(r.levels.front(), 1.0, 1e-3);
}

TEST(LevelSet, AsymmetricBox) {
  // V = x^2 + y^2 inside [-2,2] x [-0.5,0.5]: c* = 0.25 (limited by y).
  const Polynomial v = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1);
  SemialgebraicSet box(2);
  box.add_interval(0, -2.0, 2.0);
  box.add_interval(1, -0.5, 0.5);
  const LevelSetResult r = LevelSetMaximizer().maximize_one(v, box);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.levels.front(), 0.25, 1e-3);
}

TEST(LevelSet, ScaledCertificate) {
  // V = 4x^2 + y^2 inside the unit box: {V <= c} has x-extent sqrt(c)/2 and
  // y-extent sqrt(c): c* = 1.
  const Polynomial v = 4.0 * var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1);
  SemialgebraicSet box(2);
  box.add_interval(0, -1.0, 1.0);
  box.add_interval(1, -1.0, 1.0);
  const LevelSetResult r = LevelSetMaximizer().maximize_one(v, box);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.levels.front(), 1.0, 1e-3);
}

TEST(LevelSet, ConsistentLevelIsMin) {
  // Two modes with different domains: consistent level = min of the two.
  HybridSystem sys(2, 0);
  const Polynomial v = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1);
  Mode wide;
  wide.flow = {Polynomial(2), Polynomial(2)};
  wide.domain = SemialgebraicSet(2);
  wide.domain.add_interval(0, -2.0, 2.0);
  wide.domain.add_interval(1, -2.0, 2.0);
  Mode narrow = wide;
  narrow.domain = SemialgebraicSet(2);
  narrow.domain.add_interval(0, -1.0, 1.0);
  narrow.domain.add_interval(1, -1.0, 1.0);
  sys.add_mode(std::move(wide));
  sys.add_mode(std::move(narrow));
  const LevelSetResult r = LevelSetMaximizer().maximize(sys, {v, v});
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.levels[0], 4.0, 1e-2);
  EXPECT_NEAR(r.levels[1], 1.0, 1e-3);
  EXPECT_NEAR(r.consistent_level, 1.0, 1e-3);
}

TEST(AttractiveInvariant, MembershipUnion) {
  AttractiveInvariant ai;
  ai.certificates = {var(1, 0) * var(1, 0)};
  ai.levels = {1.0};
  ai.consistent_level = 0.25;
  EXPECT_TRUE(ai.contains({0.9}));
  EXPECT_FALSE(ai.contains({1.1}));
  EXPECT_TRUE(ai.contains_consistent({0.4}));
  EXPECT_FALSE(ai.contains_consistent({0.6}));
}

TEST(Inclusion, NestedDisks) {
  const Polynomial b1 = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 1.0;
  const Polynomial b2 = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 2.0;
  const InclusionResult r = InclusionChecker().subset(b1, b2);
  EXPECT_TRUE(r.included) << r.message;
}

TEST(Inclusion, NonSubsetRejected) {
  const Polynomial b1 = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 1.0;
  const Polynomial b2 = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 0.5;
  sdp::SolverConfig config;
  config.max_iterations = 50;
  const InclusionResult r = InclusionChecker({}, config).subset(b1, b2);
  EXPECT_FALSE(r.included);
}

TEST(Inclusion, EllipseInDisk) {
  // {4x^2 + y^2 <= 1} has extents (1/2, 1) -> inside the unit disk.
  const Polynomial b1 = 4.0 * var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 1.0;
  const Polynomial b2 = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 1.0;
  EXPECT_TRUE(InclusionChecker().subset(b1, b2).included);
}

TEST(Inclusion, DomainRestrictionMatters) {
  // On the halfplane x >= 0, {x - 1 <= 0} IS inside {x^2 <= 4} even though
  // globally it is not (x -> -inf).
  const Polynomial b1 = var(1, 0) - 1.0;
  const Polynomial b2 = var(1, 0) * var(1, 0) - 4.0;
  sdp::SolverConfig config;
  config.max_iterations = 50;
  EXPECT_FALSE(InclusionChecker({}, config).subset(b1, b2).included);
  SemialgebraicSet half(1);
  half.add_constraint(var(1, 0));
  EXPECT_TRUE(InclusionChecker().subset_on(b1, b2, half).included);
}

HybridSystem contraction_1d() {
  HybridSystem sys(1, 0);
  Mode m;
  m.flow = {-1.0 * var(1, 0)};
  m.domain = SemialgebraicSet(1);
  m.domain.add_interval(0, -5.0, 5.0);
  m.contains_equilibrium = true;
  sys.add_mode(std::move(m));
  return sys;
}

// Note on parameter scaling: the Taylor truncation bound requires
// kappa = curvature_fraction * gamma >= (h^2/2) * |b''| * |f|^2 over the
// region, so gamma must scale like h^2 * (set scale). Level-set polynomials
// are kept O(1)-normalized (b = (x/r)^2 - 1).
TEST(Advection, ContractionStepShrinksInterval) {
  // x' = -x, b0 = (x/2)^2 - 1 (|x| <= 2). After one advection step of h the
  // set is ~ {|x| <= 2 e^{-h}}: strictly inside, origin inside.
  const HybridSystem sys = contraction_1d();
  AdvectionOptions opt;
  opt.h = 0.05;
  opt.gamma = 0.02;
  opt.eps = 0.5;
  opt.set_degree = 2;
  const AdvectionEngine engine(sys, opt);
  const Polynomial b0 = 0.25 * var(1, 0) * var(1, 0) - 1.0;
  const AdvectionStepResult step = engine.step(b0);
  ASSERT_TRUE(step.success) << step.message;
  EXPECT_LT(step.next.eval({0.0}), 0.0);
  // The new set is contained in the old one...
  EXPECT_TRUE(InclusionChecker().subset(step.next, b0).included);
  // ...and has pulled in from the boundary (2 e^{-h} ~ 1.902).
  EXPECT_GT(step.next.eval({1.99}), 0.0);
  EXPECT_LT(step.next.eval({1.80}), 0.0);
}

TEST(Advection, IteratedStepsImmerse) {
  const HybridSystem sys = contraction_1d();
  AdvectionOptions opt;
  opt.h = 0.1;
  opt.gamma = 0.05;
  opt.eps = 0.5;
  const AdvectionEngine engine(sys, opt);
  Polynomial b = 0.25 * var(1, 0) * var(1, 0) - 1.0;
  const Polynomial target = var(1, 0) * var(1, 0) - 1.0;
  const InclusionChecker incl;
  bool immersed = false;
  for (int i = 0; i < 20 && !immersed; ++i) {
    const AdvectionStepResult step = engine.step(b);
    ASSERT_TRUE(step.success) << "iter " << i << ": " << step.message;
    b = step.next;
    immersed = incl.subset(b, target).included;
  }
  EXPECT_TRUE(immersed);
}

TEST(Advection, ExpansionTracksForwardImage) {
  // x' = +x: sets grow; the advected set must contain the forward image.
  HybridSystem sys(1, 0);
  Mode m;
  m.flow = {var(1, 0)};
  m.domain = SemialgebraicSet(1);
  m.domain.add_interval(0, -5.0, 5.0);
  sys.add_mode(std::move(m));
  AdvectionOptions opt;
  opt.h = 0.05;
  opt.gamma = 0.02;
  opt.eps = 0.5;
  const AdvectionEngine engine(sys, opt);
  const Polynomial b0 = var(1, 0) * var(1, 0) - 1.0;
  const AdvectionStepResult step = engine.step(b0);
  ASSERT_TRUE(step.success) << step.message;
  // x = 1 flows to e^{h} ~ 1.051; allow Taylor slack.
  EXPECT_LT(step.next.eval({1.02}), 0.0);
}

TEST(Escape, ConstantDriftLeavesInterval) {
  // x' = 1 on T = [1, 2]: E = -x has dE/dt = -1.
  HybridSystem sys(1, 0);
  Mode m;
  m.flow = {Polynomial::constant(1, 1.0)};
  m.domain = SemialgebraicSet(1);
  sys.add_mode(std::move(m));
  SemialgebraicSet t(1);
  t.add_interval(0, 1.0, 2.0);
  EscapeOptions opt;
  opt.certificate_degree = 2;
  const EscapeResult r = EscapeCertifier(opt).certify_set(sys, 0, t);
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_GE(r.rates.front(), opt.rho_min);
  // The returned E must actually decrease along the flow on T.
  const Polynomial edot =
      r.certificates.front().lie_derivative({Polynomial::constant(1, 1.0)});
  EXPECT_LT(edot.eval({1.5}), 0.0);
}

TEST(Escape, NoEscapeFromInvariantRegion) {
  // x' = -x on T = [-1, 1]: 0 is invariant inside T, no escape certificate
  // can exist (Prop. 1 would be violated).
  const HybridSystem sys = contraction_1d();
  SemialgebraicSet t(1);
  t.add_interval(0, -1.0, 1.0);
  EscapeOptions opt;
  opt.certificate_degree = 4;
  sdp::SolverConfig config;
  config.max_iterations = 50;
  const EscapeResult r = EscapeCertifier(opt, config).certify_set(sys, 0, t);
  EXPECT_FALSE(r.success);
}

TEST(Escape, AnnulusWithOutwardDrift) {
  // x' = x on [1 <= x <= 3]: E = -x^2 escapes (trajectories exit at x=3).
  HybridSystem sys(1, 0);
  Mode m;
  m.flow = {var(1, 0)};
  m.domain = SemialgebraicSet(1);
  sys.add_mode(std::move(m));
  SemialgebraicSet t(1);
  t.add_interval(0, 1.0, 3.0);
  const EscapeResult r = EscapeCertifier().certify_set(sys, 0, t);
  EXPECT_TRUE(r.success) << r.message;
}

// Three modes with constant drifts on differently sized boxes: every mode's
// level and escape programs share one shape, so the per-mode schedule seeds
// modes 1 and 2 from mode 0 when warm starts are on.
HybridSystem three_drift_modes() {
  HybridSystem sys(2, 0);
  const double drift[3][2] = {{1.0, 0.2}, {-0.5, 1.0}, {0.3, -1.0}};
  for (int q = 0; q < 3; ++q) {
    Mode m;
    m.flow = {Polynomial::constant(2, drift[q][0]), Polynomial::constant(2, drift[q][1])};
    m.domain = SemialgebraicSet(2);
    m.domain.add_interval(0, -2.0 - 0.5 * q, 2.0);
    m.domain.add_interval(1, -2.0, 2.0 + 0.5 * q);
    sys.add_mode(std::move(m));
  }
  return sys;
}

std::vector<Polynomial> three_drift_certificates() {
  std::vector<Polynomial> certs;
  for (int q = 0; q < 3; ++q)
    certs.push_back((1.0 + 0.5 * q) * var(2, 0) * var(2, 0) + 0.1 * var(2, 0) * var(2, 1) +
                    var(2, 1) * var(2, 1));
  return certs;
}

EscapeResult three_drift_escape(const sdp::SolverConfig& config,
                                const std::vector<std::size_t>& modes) {
  EscapeOptions opt;
  opt.certificate_degree = 2;
  const Polynomial region = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 4.0;
  return EscapeCertifier(opt, config)
      .certify(three_drift_modes(), modes, region, three_drift_certificates(), 0.25);
}

TEST(PerModeSchedule, ThreadCountDoesNotChangeResults) {
  const HybridSystem sys = three_drift_modes();
  const std::vector<Polynomial> certs = three_drift_certificates();
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm_start on" : "warm_start off");
    sdp::SolverConfig one;
    one.warm_start = warm;
    sdp::SolverConfig three = one;
    three.threads = 3;

    const LevelSetResult l1 = LevelSetMaximizer({}, one).maximize(sys, certs);
    const LevelSetResult l3 = LevelSetMaximizer({}, three).maximize(sys, certs);
    ASSERT_TRUE(l1.success) << l1.message;
    ASSERT_TRUE(l3.success) << l3.message;
    EXPECT_EQ(l1.levels, l3.levels);
    EXPECT_EQ(l1.consistent_level, l3.consistent_level);
    EXPECT_EQ(l1.solver.iterations, l3.solver.iterations);

    const EscapeResult e1 = three_drift_escape(one, {0, 1, 2});
    const EscapeResult e3 = three_drift_escape(three, {0, 1, 2});
    ASSERT_TRUE(e1.success) << e1.message;
    ASSERT_TRUE(e3.success) << e3.message;
    EXPECT_EQ(e1.rates, e3.rates);
    ASSERT_EQ(e1.certificates.size(), 3u);
    EXPECT_EQ(e1.certificates, e3.certificates);
    EXPECT_EQ(e1.solver.iterations, e3.solver.iterations);
  }
}

TEST(Escape, PerModeAuditKeepsWorstValues) {
  // Cold solves make each mode of the batch the same program as that mode
  // certified alone, so the combined audit must be the merge of the three.
  sdp::SolverConfig config;
  config.warm_start = false;
  const EscapeResult all = three_drift_escape(config, {0, 1, 2});
  ASSERT_TRUE(all.success) << all.message;
  sos::AuditReport expected;
  for (std::size_t q = 0; q < 3; ++q) {
    const EscapeResult one = three_drift_escape(config, {q});
    ASSERT_TRUE(one.success) << one.message;
    expected.merge(one.audit);
  }
  EXPECT_TRUE(all.audit.ok);
  EXPECT_EQ(all.audit.checked, expected.checked);
  EXPECT_GT(all.audit.worst_residual, 0.0);
  EXPECT_EQ(all.audit.worst_residual, expected.worst_residual);
  EXPECT_EQ(all.audit.worst_eigenvalue, expected.worst_eigenvalue);
}

TEST(LevelSet, MaximizeRejectsMissingCertificates) {
  const HybridSystem sys = three_drift_modes();
  const LevelSetResult r = LevelSetMaximizer().maximize(sys, {three_drift_certificates()[0]});
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.message.find("one certificate per mode"), std::string::npos) << r.message;
  const LevelSetResult none = LevelSetMaximizer().maximize(HybridSystem(2, 0), {});
  EXPECT_FALSE(none.success);
  EXPECT_FALSE(none.message.empty());
}

TEST(Inclusion, SubsetOfInvariantRejectsMissingCertificates) {
  const HybridSystem sys = three_drift_modes();
  const Polynomial b = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 0.1;
  const InclusionResult r =
      InclusionChecker().subset_of_invariant(b, sys, {three_drift_certificates()[0]}, 1.0);
  EXPECT_FALSE(r.included);
  EXPECT_EQ(r.solver.solves, 0);
  EXPECT_NE(r.message.find("one certificate per mode"), std::string::npos) << r.message;
}

TEST(Escape, CertifyRejectsOutOfRangeModes) {
  const HybridSystem sys = three_drift_modes();
  const Polynomial region = var(2, 0) * var(2, 0) + var(2, 1) * var(2, 1) - 4.0;
  const std::vector<Polynomial> certs = three_drift_certificates();
  const EscapeCertifier escaper;
  const EscapeResult bad_mode = escaper.certify(sys, {0, 3}, region, certs, 0.25);
  EXPECT_FALSE(bad_mode.success);
  EXPECT_NE(bad_mode.message.find("out of range"), std::string::npos) << bad_mode.message;
  const EscapeResult bad_cert =
      escaper.certify(sys, {0, 2}, region, {certs[0], certs[1]}, 0.25);
  EXPECT_FALSE(bad_cert.success);
  EXPECT_EQ(bad_cert.solver.solves, 0);
}

}  // namespace
}  // namespace soslock::core
