// Multi-loop PLL cascade / clock-tree demo: the first in-tree model whose
// Lyapunov correlative-sparsity graph is genuinely non-complete.
//
//   1. Build the clock tree: K averaged pump-vertex loops (v_i, e_i) coupled
//      only through one shared distribution rail s.
//   2. Synthesize a Lyapunov certificate twice — dense template vs the
//      clique-structured sparse template + correlative Gram splitting — and
//      compare the largest PSD cone each compile hands the backend.
//   3. Solve the directly-built clock-tree coupling SDP on the IPM after a
//      chordal lowering (clique blocks tied by zero-rhs overlap rows), and
//      show the rows the lowering added.
//
// Usage: example_clock_tree_lyapunov [num_loops]   (default 4)
#include <cstdio>
#include <cstdlib>

#include "core/lyapunov.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "poly/sparsity.hpp"
#include "sdp/lowering.hpp"
#include "sdp/solver.hpp"

using namespace soslock;

int main(int argc, char** argv) {
  pll::ClockTreeOptions tree_options;
  if (argc > 1) tree_options.loops = static_cast<std::size_t>(std::atoi(argv[1]));
  if (tree_options.loops < 1 || tree_options.loops > 64) tree_options.loops = 4;
  const pll::ClockTreeModel model =
      pll::make_clock_tree(pll::Params::paper_third_order(), tree_options);
  const std::size_t nstates = model.system.nstates();
  std::printf("=== clock tree: %zu loops, %zu states [s", model.loops, nstates);
  for (std::size_t i = 0; i < model.loops; ++i) std::printf(", v%zu, e%zu", i + 1, i + 1);
  std::printf("] ===\n\n");

  // --- Lyapunov synthesis: dense vs clique-structured template -------------
  auto synthesize = [&](bool sparse) {
    core::LyapunovOptions opt;
    opt.certificate_degree = 2;
    opt.flow_decrease = core::FlowDecrease::Strict;
    opt.strict_margin = 1e-5;
    opt.sparse_template = sparse;
    sdp::SolverConfig config;
    config.correlative_sparsity = sparse;
    return core::LyapunovSynthesizer(opt, config).synthesize(model.system);
  };
  const core::LyapunovResult dense = synthesize(false);
  const core::LyapunovResult sparse = synthesize(true);
  std::printf("dense template:  success=%s audit=%s max cone=%zu  %s\n",
              dense.success ? "yes" : "no", dense.audit.ok ? "ok" : "FAIL",
              dense.solver.max_cone, dense.solver.str().c_str());
  std::printf("sparse template: success=%s audit=%s max cone=%zu  %s\n",
              sparse.success ? "yes" : "no", sparse.audit.ok ? "ok" : "FAIL",
              sparse.solver.max_cone, sparse.solver.str().c_str());
  if (sparse.success && !sparse.certificates.empty()) {
    const poly::Polynomial& v = sparse.certificates.front();
    const auto cliques = poly::support_cliques(v.nvars(), poly::support_info(v).support);
    std::printf("certificate csp cliques: %zu (largest ", cliques.size());
    std::size_t mx = 0;
    for (const auto& c : cliques) mx = std::max(mx, c.size());
    std::printf("%zu of %zu states)\n", mx, nstates);
  }

  // --- chordal lowering of the coupling SDP --------------------------------
  std::printf("\n=== coupling SDP: chordal lowering ===\n");
  sdp::LoweringOptions low;
  low.sparsity = sdp::SparsityOptions::Chordal;
  low.chordal.min_block_size = 4;  // the tree cliques are pairs; let them split
  const sdp::Lowering lowering =
      sdp::lower(pll::clock_tree_coupling_sdp(model.constants, tree_options), low);
  sdp::SolveContext context;
  const sdp::Solution sol = sdp::make_solver("ipm", {})->solve(lowering.problem, context);
  const sdp::Solution recovered = sdp::recover(sol, lowering);
  std::printf("rows=%zu overlap_rows=%zu iters=%d status=%s obj=%.6f\n",
              lowering.problem.num_rows(),
              lowering.problem.num_rows() - lowering.map.original_rows, sol.iterations,
              sdp::to_string(recovered.status).c_str(), recovered.primal_objective);
  for (const sdp::PassRecord& pass : lowering.passes)
    std::printf("  pass %-12s %s\n", pass.name.c_str(), pass.detail.c_str());
  return 0;
}
