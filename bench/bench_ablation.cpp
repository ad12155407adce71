// Ablation studies for the design decisions called out in DESIGN.md:
//  A. strict vs non-strict flow decrease on the hybrid CP PLL (the paper's
//     Theorem-1 rigor gap: strict is impossible in the idle mode),
//  B. the fat-guard 3-mode reduction admits no polynomial certificate at all
//     (reproduction finding), while the continuized model does,
//  C. continuization ripple requires ball-exclusion (practical stability),
//  D. robust pump interval vs nominal pump (cost of the S-procedure box),
//  E. common vs multiple Lyapunov certificates on a switched system.
#include <cstdio>

#include "bench_common.hpp"
#include "core/lyapunov.hpp"
#include "util/timer.hpp"

using namespace soslock;

namespace {

void report(const char* name, const core::LyapunovResult& r, double seconds) {
  std::printf("  %-46s %-12s %8.3fs\n", name,
              r.success ? "feasible" : "infeasible", seconds);
}

core::LyapunovResult run(const hybrid::HybridSystem& sys,
                         const core::LyapunovOptions& opt, double& seconds) {
  sdp::SolverConfig config;
  config.max_iterations = 80;
  util::Timer t;
  const core::LyapunovResult r = core::LyapunovSynthesizer(opt, config).synthesize(sys);
  seconds = t.seconds();
  return r;
}

}  // namespace

int main() {
  std::printf("=== Ablations: certificate-synthesis design choices ===\n\n");
  const pll::Params p3 = pll::Params::paper_third_order();
  double secs = 0.0;

  std::printf("A. flow-decrease condition on the 3-mode hybrid CP PLL (common V, deg 4):\n");
  {
    const pll::ReducedModel hyb = pll::make_reduced(p3);
    core::LyapunovOptions opt;
    opt.certificate_degree = 4;
    opt.common_certificate = true;
    opt.flow_decrease = core::FlowDecrease::Strict;
    report("strict (Theorem 1 as written)", run(hyb.system, opt, secs), secs);
    opt.flow_decrease = core::FlowDecrease::NonStrict;
    report("non-strict (paper's SOS encoding)", run(hyb.system, opt, secs), secs);
    std::printf("  -> both infeasible: the fat-guard reduction has unbounded pump dwell\n"
                "     (see DESIGN.md); the idle mode alone already rules out strict.\n\n");
  }

  std::printf("B. model abstraction (deg-2 certificates):\n");
  {
    const pll::ReducedModel hyb = pll::make_reduced(p3);
    core::LyapunovOptions opt;
    opt.certificate_degree = 2;
    opt.common_certificate = true;
    report("3-mode hybrid (bang-bang pump)", run(hyb.system, opt, secs), secs);
    const pll::ReducedModel avg = pll::make_averaged(p3);
    core::LyapunovOptions avg_opt;
    avg_opt.certificate_degree = 2;
    avg_opt.flow_decrease = core::FlowDecrease::Strict;
    avg_opt.strict_margin = 1e-4;
    report("continuized (duty-cycle averaged pump)", run(avg.system, avg_opt, secs), secs);
    std::printf("\n");
  }

  std::printf("C. continuization ripple |w| <= 0.05 (strict, deg 2):\n");
  {
    pll::ModelOptions mo;
    mo.ripple_bound = 0.05;
    const pll::ReducedModel rip = pll::make_averaged(p3, mo);
    core::LyapunovOptions opt;
    opt.certificate_degree = 2;
    opt.flow_decrease = core::FlowDecrease::Strict;
    opt.strict_margin = 1e-4;
    report("decrease required everywhere", run(rip.system, opt, secs), secs);
    opt.exclude_ball_radius = 2.0;
    report("decrease outside ||x|| <= 2 (practical)", run(rip.system, opt, secs), secs);
    std::printf("\n");
  }

  std::printf("D. pump uncertainty (averaged model, strict, deg 2):\n");
  {
    const pll::ReducedModel robust = pll::make_averaged(p3);
    core::LyapunovOptions opt;
    opt.certificate_degree = 2;
    opt.flow_decrease = core::FlowDecrease::Strict;
    opt.strict_margin = 1e-4;
    report("Ip interval via S-procedure box", run(robust.system, opt, secs), secs);
    pll::ModelOptions nominal;
    nominal.uncertain_pump = false;
    const pll::ReducedModel nom = pll::make_averaged(p3, nominal);
    report("nominal Ip only", run(nom.system, opt, secs), secs);
    const pll::ReducedModel vertices = pll::make_averaged_vertices(p3);
    core::LyapunovOptions vopt = opt;
    vopt.common_certificate = true;
    report("Ip interval via vertex enumeration", run(vertices.system, vopt, secs), secs);
    std::printf("\n");
  }

  std::printf("E. multiple vs common certificates (switched 2-mode spiral):\n");
  {
    using poly::Polynomial;
    hybrid::HybridSystem sys(2, 0);
    const Polynomial x = Polynomial::variable(2, 0), y = Polynomial::variable(2, 1);
    hybrid::Mode m0;
    m0.flow = {-0.5 * x + y, -1.0 * x - 0.5 * y};
    m0.domain = hybrid::SemialgebraicSet(2);
    m0.domain.add_constraint(x);
    m0.domain.add_interval(1, -3.0, 3.0);
    m0.contains_equilibrium = true;
    hybrid::Mode m1;
    m1.flow = {-0.5 * x + 2.0 * y, -0.5 * x - 0.5 * y};
    m1.domain = hybrid::SemialgebraicSet(2);
    m1.domain.add_constraint(-1.0 * x);
    m1.domain.add_interval(1, -3.0, 3.0);
    m1.contains_equilibrium = true;
    sys.add_mode(std::move(m0));
    sys.add_mode(std::move(m1));
    hybrid::SemialgebraicSet surface(2);
    surface.add_constraint(x);
    surface.add_constraint(-1.0 * x);
    sys.add_jump({0, 1, surface, {}, "x=0"});
    sys.add_jump({1, 0, surface, {}, "x=0"});

    core::LyapunovOptions opt;
    opt.certificate_degree = 2;
    opt.flow_decrease = core::FlowDecrease::Strict;
    opt.strict_margin = 1e-3;
    report("multiple certificates (per mode)", run(sys, opt, secs), secs);
    opt.common_certificate = true;
    report("single common certificate", run(sys, opt, secs), secs);
  }
  return 0;
}
