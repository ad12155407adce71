// Batched parallel SOS solving vs the sequential baseline on a 3-mode PLL
// model (the pump-interval vertex relaxation: one averaged mode per pump
// value {Ip_lo, Ip_nom, Ip_hi}, no jumps, so the per-mode Lyapunov programs
// are genuinely independent). Reports:
//   1. joint coupled SDP (the pre-redesign baseline: one solve, 3x blocks),
//   2. decoupled per-mode solves, sequential (SolverConfig::threads = 1),
//   3. decoupled per-mode solves, batched on the thread pool
//      (SolverConfig::threads = 0, the hardware count),
// then the same sequential-vs-batched comparison for the per-mode
// level-curve maximisation step (SOS program 2). Speedups require hardware
// parallelism; the thread count is printed so single-core runs are legible.
#include <cstdio>

#include "bench_common.hpp"
#include "core/level_set.hpp"
#include "core/lyapunov.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace soslock;

namespace {

/// 3-mode averaged PLL: one mode per pump-current vertex {lo, nom, hi} over
/// the shared voltage box (the 3-vertex analogue of make_averaged_vertices).
hybrid::HybridSystem three_vertex_pll(const pll::Params& params) {
  pll::ModelOptions nominal;
  nominal.uncertain_pump = false;
  nominal.ripple_bound = 0.0;
  const pll::ReducedModel vertices = pll::make_averaged_vertices(params, nominal);
  const pll::ReducedModel nom = pll::make_averaged(params, nominal);

  hybrid::HybridSystem sys(nom.system.nstates(), 0);
  sys.set_state_names(nom.system.state_names());
  for (const hybrid::Mode& m : vertices.system.modes()) {
    hybrid::Mode copy = m;
    sys.add_mode(std::move(copy));
  }
  hybrid::Mode mid = nom.system.modes().front();
  mid.name = "pump-nom";
  sys.add_mode(std::move(mid));
  return sys;
}

core::LyapunovOptions lyapunov_options(bool parallel) {
  core::LyapunovOptions opt;
  opt.certificate_degree = 4;
  opt.flow_decrease = core::FlowDecrease::Strict;
  opt.strict_margin = 1e-4;
  opt.mode_parallel = parallel;
  return opt;
}

/// The worker knob: SolverConfig::threads (0 = hardware count).
sdp::SolverConfig with_threads(std::size_t threads) {
  sdp::SolverConfig config;
  config.threads = threads;
  return config;
}

double run_lyapunov(const hybrid::HybridSystem& sys, bool parallel, std::size_t threads,
                    const char* label) {
  util::Timer timer;
  const core::LyapunovResult r =
      core::LyapunovSynthesizer(lyapunov_options(parallel), with_threads(threads))
          .synthesize(sys);
  const double seconds = timer.seconds();
  std::printf("  %-34s %-10s %8.3fs   %s\n", label, r.success ? "ok" : "FAILED", seconds,
              r.solver.str().c_str());
  return seconds;
}

}  // namespace

int main() {
  std::printf("=== Batched per-mode SOS solves vs sequential baseline ===\n");
  bench::thread_banner();
  bench::cpu_banner();
  std::printf("\n");

  const pll::Params params = pll::Params::paper_third_order();
  const hybrid::HybridSystem sys = three_vertex_pll(params);
  std::printf("3-mode pump-vertex PLL model: %zu modes, %zu states\n\n",
              sys.modes().size(), sys.nstates());

  std::printf("P1 Lyapunov synthesis (degree 4, strict):\n");
  const double joint = run_lyapunov(sys, false, 1, "joint coupled SDP");
  const double seq = run_lyapunov(sys, true, 1, "decoupled, sequential");
  const double par = run_lyapunov(sys, true, 0, "decoupled, batched");
  if (par > 0.0) {
    std::printf("  speedup: batched vs joint %.2fx, batched vs sequential %.2fx\n\n",
                joint / par, seq / par);
  }

  // Level-curve maximisation (SOS program 2) over the synthesized V_q.
  const core::LyapunovResult certs =
      core::LyapunovSynthesizer(lyapunov_options(true), with_threads(0)).synthesize(sys);
  if (!certs.success) {
    std::printf("no certificates for the level-set stage: %s\n", certs.message.c_str());
    return 1;
  }
  std::printf("P1 level-curve maximisation (per-mode SDPs):\n");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    const core::LevelSetMaximizer maximizer({}, with_threads(threads));
    util::Timer timer;
    const core::LevelSetResult levels = maximizer.maximize(sys, certs.certificates);
    std::printf("  %-34s %-10s %8.3fs   %s\n",
                threads == 1 ? "sequential (threads=1)" : "batched (threads=hw)",
                levels.success ? "ok" : "FAILED", timer.seconds(),
                levels.solver.str().c_str());
  }
  return 0;
}
