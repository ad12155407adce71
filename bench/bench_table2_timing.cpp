// Reproduces Table 2 of the paper: computation time of each step of the
// inevitability verification, for the third- and fourth-order CP PLL.
// Absolute numbers differ (our from-scratch IPM on modern hardware vs
// YALMIP+MATLAB on a 2011 i5); the reproduced *shape* is the per-step cost
// breakdown: deductive attractive-invariant synthesis at the paper's
// certificate degrees is the dominant deductive step, level maximisation and
// set-inclusion checks are cheap, advection requires several iterations, and
// only the fourth order needs escape certificates.
//
// SOSLOCK_PAPER_DEGREES=1 -> degree-6 certificate for order 3 (paper).
//
// At the default degrees, gates the IPM iteration count of the two verify()
// runs against its recorded value (3% headroom). Also prints the
// cold-vs-warm iteration comparison for the advection and level-curve loops
// (the incremental-solve acceptance gate), the dense vs
// clique cone sizes, and checks the Newton-pruned Gram-basis size on the
// pump-vertex model against the pruned baseline. Every gate is a
// deterministic count, never a wall time; a regression fails the process
// (nonzero exit). ctest runs it under the `gate` label.
#include <cstdio>

#include <algorithm>

#include "bench_common.hpp"
#include "core/escape.hpp"
#include "poly/basis.hpp"
#include "poly/sparsity.hpp"
#include "util/timer.hpp"

using namespace soslock;

namespace {

struct RowSet {
  int order = 0;
  double invariant = 0, levels = 0, advection = 0, inclusion = 0, escape = 0;
  int advect_iters = 0, escape_certs = 0;
  int solver_iters = 0;  // every SOS solve of verify(), summed
  std::string backend;
  unsigned degree = 0;
  std::string verdict;
};

RowSet run_order(int order, bool paper_degrees) {
  const pll::Params params =
      order == 3 ? pll::Params::paper_third_order() : pll::Params::paper_fourth_order();
  const pll::ReducedModel model = pll::make_averaged(params);

  core::PipelineOptions opt;
  opt.lyapunov = bench::pll_lyapunov_options(order, paper_degrees);
  opt.advection = bench::pll_advection_options(order);
  opt.max_advection_iterations = order == 3 ? 14 : 7;
  opt.escape.certificate_degree = order == 3 ? 2 : 4;

  const poly::Polynomial b_init =
      order == 3 ? bench::ellipsoid(model.system.nvars(), {5.0, 4.2, 0.9})
                 : bench::ellipsoid(model.system.nvars(), {6.0, 6.0, 6.0, 0.9});
  const core::PipelineReport report =
      core::InevitabilityVerifier(opt).verify(model.system, b_init);

  RowSet rows;
  rows.order = order;
  rows.degree = opt.lyapunov.certificate_degree;
  rows.advect_iters = report.advection_iterations;
  rows.escape_certs = report.escape.num_certificates;
  rows.solver_iters = report.solver.iterations;
  rows.backend = report.solver.backend;
  rows.verdict = core::to_string(report.verdict);
  for (const auto& entry : report.timings.entries()) {
    if (entry.name == "Attractive Invariant") rows.invariant = entry.seconds;
    if (entry.name == "Max.Level Curves") rows.levels = entry.seconds;
    if (entry.name == "Advection") rows.advection = entry.seconds;
    if (entry.name == "Checking Set Inclusion") rows.inclusion = entry.seconds;
    if (entry.name == "Escape Certificate") rows.escape = entry.seconds;
  }
  return rows;
}

/// Advection + level-curve loops of the third-order model with warm starts
/// on or off; returns (level iterations, advection iterations, wall seconds).
struct LoopCost {
  int level_iters = 0;
  int advect_iters = 0;
  int inclusion_iters = 0;
  double seconds = 0.0;
  int total() const { return level_iters + advect_iters + inclusion_iters; }
};

LoopCost run_incremental_loops(bool warm,
                               sdp::SparsityOptions sparsity = sdp::SparsityOptions::Off,
                               std::size_t* level_cone = nullptr,
                               std::size_t* inclusion_cone = nullptr) {
  const pll::Params params = pll::Params::paper_third_order();
  const util::Timer timer;
  LoopCost cost;
  sdp::SolverConfig config;
  config.warm_start = warm;
  config.sparsity = sparsity;

  // Level curves on the 2-mode pump-vertex model (structurally identical
  // per-mode programs: the warm path seeds mode 1+ from mode 0).
  {
    const pll::ReducedModel model = pll::make_averaged_vertices(params);
    core::LyapunovOptions lopt = bench::pll_lyapunov_options(3, false);
    const core::LyapunovResult lyap = core::LyapunovSynthesizer(lopt).synthesize(model.system);
    const core::LevelSetResult lev =
        core::LevelSetMaximizer({}, config).maximize(model.system, lyap.certificates);
    cost.level_iters = lev.solver.iterations;
  }

  // Advection eps/lambda ladder on the averaged model (successive steps and
  // retries share one compiled shape), with the per-step immersion check
  // exactly as the pipeline interleaves it (structurally identical from one
  // advected iterate to the next).
  {
    const pll::ReducedModel model = pll::make_averaged(params);
    core::LyapunovOptions lopt = bench::pll_lyapunov_options(3, false);
    const core::LyapunovResult lyap = core::LyapunovSynthesizer(lopt).synthesize(model.system);
    const core::LevelSetResult lev =
        core::LevelSetMaximizer({}, config).maximize(model.system, lyap.certificates);
    if (level_cone != nullptr) *level_cone = lev.solver.max_cone;

    const core::AdvectionEngine engine(model.system, bench::pll_advection_options(3),
                                       config);
    const core::InclusionChecker inclusion({}, config);
    poly::Polynomial b = bench::ellipsoid(model.system.nvars(), {5.0, 4.2, 0.9});
    sos::SolveStats advect_stats, inclusion_stats;
    for (int it = 0; it < 6; ++it) {
      const core::AdvectionStepResult step = engine.step(b);
      advect_stats.merge(step.solver);
      if (!step.success) break;
      b = step.next;
      const core::InclusionResult incl = inclusion.subset_of_invariant(
          b, model.system, lyap.certificates, lev.consistent_level);
      inclusion_stats.merge(incl.solver);
    }
    cost.advect_iters = advect_stats.iterations;
    cost.inclusion_iters = inclusion_stats.iterations;
    if (inclusion_cone != nullptr) *inclusion_cone = inclusion_stats.max_cone;
  }
  cost.seconds = timer.seconds();
  return cost;
}

/// Gram geometry of the joint maximize_region Lyapunov program on the
/// pump-vertex model, compiled dense or with the correlative clique split —
/// the pruning/clique regression gates (the Newton-polytope +
/// diagonal-consistency prune lands the dense program at kPrunedGramBudget;
/// box is larger; the clique split must never grow a block past the dense
/// maximum).
struct GramGeometry {
  int total = 0;      // sum of Gram block dimensions
  int max_block = 0;  // largest Gram block (== largest PSD cone compiled)
};

/// The joint maximize_region-shaped Lyapunov feasibility program on the
/// pump-vertex model — the Gram-geometry gate input.
sos::SosProgram build_pump_vertex_lyapunov(sdp::SparsityOptions sparsity) {
  const pll::ReducedModel model = pll::make_averaged_vertices(pll::Params::paper_third_order());
  const hybrid::HybridSystem& system = model.system;
  const std::size_t nvars = system.nvars();
  const std::size_t nstates = system.nstates();
  sos::SosProgram prog(nvars);
  sdp::SolverConfig config;
  config.sparsity = sparsity;
  prog.set_sparsity(config);
  poly::MultiplierSparsity csp(nvars, sparsity != sdp::SparsityOptions::Off);
  const auto v_support = core::state_monomials(nvars, nstates, 2, 2);
  const poly::Polynomial x_norm2 = poly::squared_norm(nvars, nstates);
  std::vector<poly::PolyLin> v;
  for (std::size_t q = 0; q < system.modes().size(); ++q)
    v.push_back(prog.add_poly(v_support, "V" + std::to_string(q)));
  // Couple every mode's data before the first multiplier basis is drawn.
  for (std::size_t q = 0; q < system.modes().size(); ++q) {
    csp.couple(v[q] - poly::PolyLin(1e-2 * x_norm2));
    csp.couple(-v[q].lie_derivative(system.modes()[q].flow));
  }
  for (std::size_t q = 0; q < system.modes().size(); ++q) {
    const auto& mode = system.modes()[q];
    poly::PolyLin pos = v[q] - poly::PolyLin(1e-2 * x_norm2);
    poly::PolyLin dec = -v[q].lie_derivative(mode.flow);
    for (std::size_t k = 0; k < mode.domain.constraints().size(); ++k) {
      const poly::Polynomial& g = mode.domain.constraints()[k];
      pos -= prog.add_sos_poly(csp.multiplier_basis(g, 2u), "p") * g;
      dec -= prog.add_sos_poly(csp.multiplier_basis(g, 2u), "d") * g;
    }
    prog.add_sos_constraint(pos, "pos" + std::to_string(q));
    prog.add_sos_constraint(dec, "dec" + std::to_string(q));
  }
  return prog;
}

GramGeometry pump_vertex_gram(sdp::SparsityOptions sparsity) {
  const sos::SosProgram prog = build_pump_vertex_lyapunov(sparsity);
  GramGeometry geometry;
  for (const auto& g : prog.gram_blocks()) {
    geometry.total += static_cast<int>(g.basis.size());
    geometry.max_block = std::max(geometry.max_block, static_cast<int>(g.basis.size()));
  }
  return geometry;
}

}  // namespace

int main() {
  bench::thread_banner();
  bench::cpu_banner();
  const bool paper_degrees = bench::env_flag("SOSLOCK_PAPER_DEGREES");
  std::printf("=== Table 2: computation time of the inevitability verification ===\n");
  std::printf("(certificate degrees: %s; set SOSLOCK_PAPER_DEGREES=1 for the paper's)\n\n",
              paper_degrees ? "paper (6 / 4)" : "fast (2 / 2)");

  const RowSet o3 = run_order(3, paper_degrees);
  const RowSet o4 = run_order(4, paper_degrees);

  std::printf("%-28s %18s %18s\n", "Verification Step", "3-Order Time(Sec)",
              "4-Order Time(Sec)");
  std::printf("%-28s %12.3f (d%u) %12.3f (d%u)\n", "Attractive Invariant", o3.invariant,
              o3.degree, o4.invariant, o4.degree);
  std::printf("%-28s %18.3f %18.3f\n", "Max.Level Curves", o3.levels, o4.levels);
  std::printf("%-28s %11.3f (%2d it) %11.3f (%2d it)\n", "Advection", o3.advection,
              o3.advect_iters, o4.advection, o4.advect_iters);
  std::printf("%-28s %18.3f %18.3f\n", "Checking Set Inclusion", o3.inclusion, o4.inclusion);
  std::printf("%-28s %11.3f (%d crt) %11.3f (%d crt)\n", "Escape Certificate", o3.escape,
              o3.escape_certs, o4.escape, o4.escape_certs);
  std::printf("%-28s %18s %18s\n", "Verdict", o3.verdict.c_str(), o4.verdict.c_str());
  std::printf("%-28s %11d (%4s) %11d (%4s)\n", "Solver iterations", o3.solver_iters,
              o3.backend.c_str(), o4.solver_iters, o4.backend.c_str());

  std::printf("\nPaper reference values (2.6 GHz i5, 4 GB, YALMIP/MATLAB):\n");
  std::printf("%-28s %18s %18s\n", "Attractive Invariant", "1381.7 (deg 6)", "10021 (deg 4)");
  std::printf("%-28s %18s %18s\n", "Max.Level Curves", "15.5", "12");
  std::printf("%-28s %18s %18s\n", "Advection", "106.8 (14 it)", "140.7 (7 it)");
  std::printf("%-28s %18s %18s\n", "Checking Set Inclusion", "13", "10.2");
  std::printf("%-28s %18s %18s\n", "Escape Certificate", "-", "18 (2 crt)");

  std::printf("\nShape checks (the paper's per-step cost breakdown):\n");
  auto yesno = [](bool b) { return b ? "yes" : "NO"; };
  std::printf("  both orders verified: %s / %s\n",
              yesno(o3.verdict.rfind("Verified", 0) == 0),
              yesno(o4.verdict.rfind("Verified", 0) == 0));
  std::printf("  advection iterates several steps (3rd >= 3, 4th == 7): %s / %s\n",
              yesno(o3.advect_iters >= 3), yesno(o4.advect_iters == 7));
  std::printf("  set-inclusion checks cheap vs advection: %s / %s\n",
              yesno(o3.inclusion < o3.advection), yesno(o4.inclusion < o4.advection));
  std::printf("  4th order needs escape certificates: %s\n", yesno(o4.escape_certs >= 1));
  if (paper_degrees) {
    // Derived from the rows above, per order: what the run closed P2 with,
    // and which of the two deductive steps cost more (the paper's invariant
    // steps dominated, 1381.7 s / 10021 s).
    for (const RowSet* r : {&o3, &o4}) {
      std::string p2 = "does not close P2";
      if (r->verdict.rfind("Verified", 0) == 0 && r->escape_certs == 0) {
        p2 = "closes P2 by advection alone";
      } else if (r->verdict.rfind("Verified", 0) == 0) {
        p2 = "closes P2 with " + std::to_string(r->escape_certs) +
             " escape certificate(s)";
      }
      std::printf("  [paper degrees] order %d, deg-%u certificate: %s (%s, %d advection "
                  "iteration(s)); invariant synthesis %.1fs %s level maximisation "
                  "%.1fs\n",
                  r->order, r->degree, p2.c_str(), r->verdict.c_str(), r->advect_iters,
                  r->invariant, r->invariant >= r->levels ? ">=" : "<", r->levels);
    }
  }

  // --- incremental solve path: cold vs warm ---------------------------------
  std::printf("\n=== Incremental solves: cold vs warm (3rd-order loops) ===\n");
  std::size_t level_cone_dense = 0, incl_cone_dense = 0;
  const LoopCost cold = run_incremental_loops(false);
  // The warm dense run doubles as the dense baseline of the clique
  // comparison below (same configuration; only the cone telemetry is new).
  const LoopCost warm = run_incremental_loops(true, sdp::SparsityOptions::Off,
                                              &level_cone_dense, &incl_cone_dense);
  const double ratio =
      warm.total() > 0 ? static_cast<double>(cold.total()) / warm.total() : 0.0;
  std::printf("%-26s %10s %10s\n", "", "cold", "warm");
  std::printf("%-26s %10d %10d\n", "level-curve iters", cold.level_iters, warm.level_iters);
  std::printf("%-26s %10d %10d\n", "advection iters", cold.advect_iters, warm.advect_iters);
  std::printf("%-26s %10d %10d\n", "inclusion iters", cold.inclusion_iters,
              warm.inclusion_iters);
  std::printf("%-26s %10d %10d   (%.2fx fewer warm)\n", "total IPM iters", cold.total(),
              warm.total(), ratio);
  std::printf("%-26s %9.2fs %9.2fs\n", "wall", cold.seconds, warm.seconds);

  // --- dense vs clique: cone sizes and iterations ---------------------------
  // The same warm-started loops with SparsityOptions::Chordal: correlative
  // Gram clique splitting + csp-restricted multiplier bases (+ the SDP-level
  // chordal conversion for any remaining large block). On the averaged
  // 3rd-order model the level/inclusion programs never touch the parameter
  // variable, so its monomials drop from every multiplier cone; the
  // advection program couples everything (the flow's state-parameter
  // product) and stays dense — which is the honest shape of this model.
  std::printf("\n=== Dense vs clique (SparsityOptions::Chordal, warm loops) ===\n");
  std::size_t level_cone_clique = 0, incl_cone_clique = 0;
  const LoopCost& dense_loops = warm;  // measured above, identical config
  const LoopCost clique_loops = run_incremental_loops(true, sdp::SparsityOptions::Chordal,
                                                      &level_cone_clique, &incl_cone_clique);
  std::printf("%-26s %10s %10s\n", "", "dense", "clique");
  std::printf("%-26s %10zu %10zu\n", "level max cone", level_cone_dense, level_cone_clique);
  std::printf("%-26s %10zu %10zu\n", "inclusion max cone", incl_cone_dense,
              incl_cone_clique);
  std::printf("%-26s %10d %10d\n", "level iters", dense_loops.level_iters,
              clique_loops.level_iters);
  std::printf("%-26s %10d %10d\n", "advection iters", dense_loops.advect_iters,
              clique_loops.advect_iters);
  std::printf("%-26s %10d %10d\n", "inclusion iters", dense_loops.inclusion_iters,
              clique_loops.inclusion_iters);
  std::printf("%-26s %9.2fs %9.2fs\n", "wall", dense_loops.seconds, clique_loops.seconds);

  // --- Gram-basis pruning + clique gates ------------------------------------
  // Newton-polytope + diagonal-consistency pruning lands the dense
  // pump-vertex Lyapunov program at this total Gram dimension; the box prune
  // is larger. The pump-vertex model couples all three states in every
  // constraint (its csp graph is complete), so the clique split must
  // reproduce the dense geometry exactly — its gate is "no block ever grows
  // past the dense maximum, no monomial is duplicated".
  constexpr int kPrunedGramBudget = 112;
  constexpr int kMaxCliqueBudget = 4;  // largest clique cone of the dense program
  const GramGeometry dense_gram = pump_vertex_gram(sdp::SparsityOptions::Off);
  const GramGeometry clique_gram = pump_vertex_gram(sdp::SparsityOptions::Chordal);
  std::printf("\npump-vertex gram: dense total=%d max=%d | clique total=%d max=%d "
              "(budgets: total %d, max clique %d)\n",
              dense_gram.total, dense_gram.max_block, clique_gram.total,
              clique_gram.max_block, kPrunedGramBudget, kMaxCliqueBudget);

  // IPM Newton steps of the two verify() runs above at the default degrees,
  // every step a solve ran (stalled solves included, not only those up to
  // the iterate they return): 343 (pll3) + 803 (pll4) = 1146 natively
  // (avx512); 1120 under SOSLOCK_SIMD=scalar and 1163 under avx2, where the
  // stall tails round differently. A change to the step-length or direction
  // code may raise the count by at most 3%.
  constexpr int kVerifyIterations = 1146;
  const int verify_iters = o3.solver_iters + o4.solver_iters;
  std::printf("verify() IPM iterations (pll3 + pll4): %d (budget %d + 3%%)\n",
              verify_iters, kVerifyIterations);

  int failures = 0;
  if (!paper_degrees && 100 * verify_iters > 103 * kVerifyIterations) {
    std::printf("FAIL: verify() took %d IPM iterations, more than 3%% over %d\n",
                verify_iters, kVerifyIterations);
    ++failures;
  }
  // Current ratio is 1.14x (424 cold / 373 warm steps, the same on scalar,
  // avx2 and avx512); the gate sits below it so cross-platform
  // iteration-count jitter cannot trip CI, while a real warm-start
  // regression (ratio -> 1.0) still fails loudly.
  if (ratio < 1.10) {
    std::printf("FAIL: warm starts give %.2fx < 1.10x iteration reduction\n", ratio);
    ++failures;
  }
  if (dense_gram.total > kPrunedGramBudget) {
    std::printf("FAIL: gram basis regressed above the pruned baseline (%d > %d)\n",
                dense_gram.total, kPrunedGramBudget);
    ++failures;
  }
  if (clique_gram.max_block > kMaxCliqueBudget) {
    std::printf("FAIL: pump-vertex max clique cone regressed (%d > %d)\n",
                clique_gram.max_block, kMaxCliqueBudget);
    ++failures;
  }
  if (clique_gram.total > kPrunedGramBudget) {
    std::printf("FAIL: clique split grew the pump-vertex gram total (%d > %d)\n",
                clique_gram.total, kPrunedGramBudget);
    ++failures;
  }
  // The level-program cone must genuinely shrink under the clique split (the
  // parameter variable drops from the multiplier cones).
  if (level_cone_clique >= level_cone_dense) {
    std::printf("FAIL: clique split did not shrink the level-program cone (%zu >= %zu)\n",
                level_cone_clique, level_cone_dense);
    ++failures;
  }
  if (incl_cone_clique > incl_cone_dense) {
    std::printf("FAIL: clique split grew the inclusion-program cone (%zu > %zu)\n",
                incl_cone_clique, incl_cone_dense);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
