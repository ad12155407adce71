// End-to-end reproduction of the paper's headline result for the third-order
// CP PLL: verify that phase lock is inevitable from a large initial region,
// using multiple Lyapunov certificates (P1) + bounded level-set advection
// (P2), exactly the Sec. 3 methodology.
//
// Run with SOSLOCK_BACKEND=ipm|admm|auto to route every SOS query through a
// different SDP solver backend (the timing table records which one ran).
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "sdp/solver.hpp"

using namespace soslock;

int main() {
  const pll::Params params = pll::Params::paper_third_order();
  std::printf("Third-order CP PLL (Table 1 parameters)\n%s\n\n", params.str().c_str());

  // The certified model: continuized pump with the Ip interval as an
  // uncertain parameter (see DESIGN.md for why the fat-guard 3-mode
  // reduction cannot carry a polynomial certificate).
  const pll::ReducedModel model = pll::make_averaged(params);
  std::printf("normalized loop constants: a=%.3f rho=%.3f kappa=%.3f (T=%.3g s)\n\n",
              model.constants.a, model.constants.rho, model.constants.kappa,
              model.constants.t_scale);

  core::PipelineOptions opt;
  opt.lyapunov.certificate_degree = 2;
  opt.lyapunov.flow_decrease = core::FlowDecrease::Strict;
  opt.lyapunov.strict_margin = 1e-4;
  opt.lyapunov.maximize_region = true;
  opt.advection.h = 0.01;
  opt.advection.gamma = 0.008;
  opt.advection.eps = 0.3;
  opt.max_advection_iterations = 14;
  if (const char* backend = std::getenv("SOSLOCK_BACKEND")) {
    try {
      sdp::make_solver(backend);
    } catch (const std::invalid_argument&) {
      std::fprintf(stderr, "unknown SOSLOCK_BACKEND '%s'; expected ipm|admm|auto\n",
                   backend);
      return 2;
    }
    opt.solver.backend = backend;
    std::printf("solver backend: %s\n\n", backend);
  }

  // Initial region: |v| up to ~5 V around the lock voltage, phase error up
  // to 0.9 cycles — the start-up states of the paper's introduction.
  const std::size_t nvars = model.system.nvars();
  poly::Polynomial b_init(nvars);
  const double axes[3] = {5.0, 4.2, 0.9};
  for (std::size_t i = 0; i < 3; ++i) {
    const poly::Polynomial xi = poly::Polynomial::variable(nvars, i);
    b_init += (1.0 / (axes[i] * axes[i])) * xi * xi;
  }
  b_init -= poly::Polynomial::constant(nvars, 1.0);
  b_init *= 0.5;

  const core::PipelineReport report =
      core::InevitabilityVerifier(opt).verify(model.system, b_init);
  std::printf("%s\n", report.summary().c_str());

  if (report.verdict == core::Verdict::VerifiedByAdvection ||
      report.verdict == core::Verdict::VerifiedWithEscape) {
    std::printf("==> phase-locking is INEVITABLE from the initial region\n");
    std::printf("    (Lyapunov certificate audited: %zu Gram identities checked)\n",
                report.lyapunov.audit.checked);
    return 0;
  }
  std::printf("==> verification inconclusive\n");
  return 1;
}
