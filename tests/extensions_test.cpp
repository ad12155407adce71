// Tests for the extension features: certified exponential rates ("time to
// locking") and barrier certificates (safety).
#include <gtest/gtest.h>

#include <cmath>

#include "core/barrier.hpp"
#include "core/lyapunov.hpp"
#include "core/rate.hpp"
#include "hybrid/simulator.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"

namespace soslock::core {
namespace {

using hybrid::HybridSystem;
using hybrid::Mode;
using hybrid::SemialgebraicSet;
using poly::Polynomial;

HybridSystem decay_1d(double rate) {
  HybridSystem sys(1, 0);
  Mode m;
  m.flow = {-rate * Polynomial::variable(1, 0)};
  m.domain = SemialgebraicSet(1);
  m.domain.add_interval(0, -2.0, 2.0);
  m.contains_equilibrium = true;
  sys.add_mode(std::move(m));
  return sys;
}

TEST(Rate, ExactForLinearDecay) {
  // x' = -2x with V = x^2: V̇ = -4 V exactly, so alpha* = 4.
  const HybridSystem sys = decay_1d(2.0);
  const Polynomial v = Polynomial::variable(1, 0) * Polynomial::variable(1, 0);
  const RateResult r = RateCertifier().certify(sys, 0, v);
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_NEAR(r.alpha, 4.0, 1e-2);
  // Envelope: V = |x|^2 exactly, m = M = 1.
  EXPECT_NEAR(r.lower_quadratic, 1.0, 1e-3);
  EXPECT_NEAR(r.upper_quadratic, 1.0, 1e-3);
}

TEST(Rate, TimeToReachBound) {
  const HybridSystem sys = decay_1d(1.0);  // x' = -x: |x(t)| = |x0| e^{-t}
  const Polynomial v = Polynomial::variable(1, 0) * Polynomial::variable(1, 0);
  const RateResult r = RateCertifier().certify(sys, 0, v);
  ASSERT_TRUE(r.success);
  // Reaching |x| <= 0.1 from |x0| <= 1 takes ln(10) ~ 2.303; the certified
  // bound must be valid (>= truth) and reasonably tight.
  const double bound = r.time_to_reach(1.0, 0.1);
  EXPECT_GE(bound, std::log(10.0) - 1e-6);
  EXPECT_LE(bound, std::log(10.0) * 1.3);
}

TEST(Rate, InfiniteWhenNoEnvelope) {
  RateResult r;
  r.alpha = 1.0;
  EXPECT_TRUE(std::isinf(r.time_to_reach(1.0, 0.1)));
}

TEST(Rate, Pll3LockTimeBound) {
  // Certified "time to locking" for the averaged third-order CP PLL: find V,
  // certify its decay rate, and bound the time to enter a small ball.
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order());
  LyapunovOptions lopt;
  lopt.certificate_degree = 2;
  lopt.flow_decrease = FlowDecrease::Strict;
  lopt.strict_margin = 1e-4;
  const LyapunovResult lyap = LyapunovSynthesizer(lopt).synthesize(m.system);
  ASSERT_TRUE(lyap.success);
  const RateResult r = RateCertifier().certify(m.system, 0, lyap.certificates.front());
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_GT(r.alpha, 0.0);
  const double t_bound = r.time_to_reach(8.0, 0.1);
  EXPECT_TRUE(std::isfinite(t_bound));
  // Empirical sanity: the bound must exceed the simulated settling time of
  // one trajectory (certified bounds are conservative).
  const hybrid::Simulator sim(m.system);
  hybrid::SimOptions sopt;
  sopt.dt = 2e-3;
  sopt.t_max = t_bound;
  sopt.stop_when = [](const hybrid::TracePoint& pt) {
    return linalg::norm2(pt.x) < 0.1;
  };
  const hybrid::SimResult run = sim.run(0, {2.0, -1.0, 0.5}, sopt);
  EXPECT_EQ(run.stop_reason, "stop_when");
  EXPECT_LE(run.final().t, t_bound);
}

TEST(Barrier, SeparatesLinearFlow) {
  // x' = -x on [-2, 2]: from X0 = [-0.5, 0.5] the unsafe set [1.5, 2] is
  // never reached (|x| only shrinks).
  const HybridSystem sys = decay_1d(1.0);
  SemialgebraicSet x0(1), xu(1);
  x0.add_interval(0, -0.5, 0.5);
  xu.add_interval(0, 1.5, 2.0);
  BarrierOptions opt;
  opt.certificate_degree = 2;
  const BarrierResult r = BarrierCertifier(opt).certify(sys, x0, xu);
  ASSERT_TRUE(r.success) << r.message;
  // The certificate must actually separate: B <= 0 on X0, > 0 on Xu.
  const Polynomial& b = r.certificates.front();
  EXPECT_LE(b.eval({0.3}), 1e-9);
  EXPECT_GT(b.eval({1.7}), 0.0);
}

TEST(Barrier, InfeasibleWhenUnsafeReachable) {
  // x' = +x: trajectories from [-0.5,0.5] DO reach [1.5,2]; no barrier.
  HybridSystem sys(1, 0);
  Mode m;
  m.flow = {Polynomial::variable(1, 0)};
  m.domain = SemialgebraicSet(1);
  m.domain.add_interval(0, -2.0, 2.0);
  sys.add_mode(std::move(m));
  SemialgebraicSet x0(1), xu(1);
  x0.add_interval(0, -0.5, 0.5);
  xu.add_interval(0, 1.5, 2.0);
  BarrierOptions opt;
  opt.certificate_degree = 4;
  sdp::SolverConfig config;
  config.max_iterations = 60;
  const BarrierResult r = BarrierCertifier(opt, config).certify(sys, x0, xu);
  EXPECT_FALSE(r.success);
}

TEST(Barrier, Pll3ControlVoltageSafety) {
  // Safety companion of inevitability: starting with |v| <= 2 V and |e| <=
  // 0.5, the control voltage v2 never exceeds 7 V while acquiring lock.
  const pll::ReducedModel m = pll::make_averaged(pll::Params::paper_third_order());
  const std::size_t nvars = m.system.nvars();
  SemialgebraicSet x0(nvars), xu(nvars);
  x0.add_interval(0, -2.0, 2.0);
  x0.add_interval(1, -2.0, 2.0);
  x0.add_interval(2, -0.5, 0.5);
  xu.add_interval(1, 7.0, 8.0);  // unsafe: v2 in [7, 8]
  BarrierOptions opt;
  opt.certificate_degree = 2;
  const BarrierResult r = BarrierCertifier(opt).certify(m.system, x0, xu);
  ASSERT_TRUE(r.success) << r.message;
  linalg::Vector inside(nvars, 0.0);
  EXPECT_LE(r.certificates.front().eval(inside), 0.0);
  linalg::Vector unsafe_pt(nvars, 0.0);
  unsafe_pt[1] = 7.5;
  EXPECT_GT(r.certificates.front().eval(unsafe_pt), 0.0);
}

TEST(Barrier, TwoModeSwitchedSafety) {
  // Two-mode system with identity jumps on a surface: barrier per mode.
  HybridSystem sys(2, 0);
  const Polynomial x = Polynomial::variable(2, 0), y = Polynomial::variable(2, 1);
  Mode m0;
  m0.flow = {-1.0 * x, -1.0 * y};
  m0.domain = SemialgebraicSet(2);
  m0.domain.add_constraint(x);
  m0.domain.add_interval(1, -2.0, 2.0);
  Mode m1;
  m1.flow = {-0.5 * x, -2.0 * y};
  m1.domain = SemialgebraicSet(2);
  m1.domain.add_constraint(-1.0 * x);
  m1.domain.add_interval(1, -2.0, 2.0);
  sys.add_mode(std::move(m0));
  sys.add_mode(std::move(m1));
  SemialgebraicSet surface(2);
  surface.add_constraint(x);
  surface.add_constraint(-1.0 * x);
  sys.add_jump({0, 1, surface, {}, ""});
  sys.add_jump({1, 0, surface, {}, ""});

  SemialgebraicSet x0(2), xu(2);
  x0.add_ball({0, 1}, 0.5);
  xu.add_ball({0, 1}, 0.2);
  // Unsafe = annulus complement trick is not semialgebraic here; instead use
  // a far box:
  xu = SemialgebraicSet(2);
  xu.add_interval(0, 1.5, 2.0);
  xu.add_interval(1, 1.5, 2.0);
  BarrierOptions opt;
  opt.certificate_degree = 2;
  opt.common_certificate = false;
  const BarrierResult r = BarrierCertifier(opt).certify(sys, x0, xu);
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_EQ(r.certificates.size(), 2u);
}

}  // namespace
}  // namespace soslock::core
