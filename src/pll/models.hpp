#pragma once
// Reduced-coordinate hybrid models of the CP PLL (the paper's Eq. 2/3 after
// the Remark-1 change of variables), plus the averaged (continuized) variant.
//
// States (shifted so the lock point is the origin, time normalized by R*C2):
//   order 3:  x = (v1~, v2~, e)          e = (phi_ref - phi_vco)/2pi
//   order 4:  x = (v1~, v2~, v3~, e)
// Modes: idle (pump off), up (pump +Ip), down (pump -Ip); all jumps carry
// identity resets (Remark 1).
#include "hybrid/system.hpp"
#include "pll/params.hpp"
#include "sdp/problem.hpp"

namespace soslock::pll {

struct ModelOptions {
  double v_box = 8.0;        // voltage box |v_i~| <= v_box (volts)
  double e_box = 1.0;        // idle-mode |e| bound (cycles; one period)
  double e_pump_max = 2.0;   // pump-mode outer |e| bound (no cycle slip)
  bool uncertain_pump = true;   // model the Ip interval as a parameter u0
  /// Averaged model only: bound on the continuization (ripple) disturbance w
  /// added to v2' (|w| <= ripple_bound, a second uncertain parameter). This
  /// soundly covers the gap between the instantaneous bang-bang pump and its
  /// duty-cycle average; 0 disables it.
  double ripple_bound = 0.0;
  /// Multiplies kappa. 0 = auto (0.02 for order 3, 3e-4 for order 4): the
  /// raw Table-1 MHz/V reading puts the loop bandwidth at/above f_ref
  /// (violating Gardner's limit, so the event-driven loop cycle-slips) and,
  /// for order 4, also above the extra RC pole (unstable even averaged). The
  /// paper does not print its 4th-order A matrix or Kv units; see DESIGN.md.
  double gain_scale = 0.0;
};

/// The effective gain scale after resolving the auto (0) default.
double resolve_gain_scale(int order, double gain_scale);

/// A built reduced model with its metadata.
struct ReducedModel {
  hybrid::HybridSystem system;
  std::size_t mode_idle = 0, mode_up = 1, mode_down = 2;
  LoopConstants constants;
  ModelOptions options;
  int order = 3;
  /// Index of the phase-error state e within the state vector.
  std::size_t e_index = 0;
};

/// Build the 3-mode reduced hybrid model (order taken from `params`).
ReducedModel make_reduced(const Params& params, const ModelOptions& options = {});

/// Averaged (continuized) single-mode model: the pump current is replaced by
/// its duty-cycle average Ip*e. Linear flow; used as the strictly
/// asymptotically stable companion model (see the DESIGN.md rigor note).
ReducedModel make_averaged(const Params& params, const ModelOptions& options = {});

/// Vertex-enumeration robust variant of the averaged model: instead of an
/// uncertain parameter boxed by the S-procedure, one mode per extreme pump
/// value {Ip_lo, Ip_hi} sharing the domain. A common certificate over both
/// modes is equivalent to interval robustness because the flow is affine in
/// Ip (ablation of the S-procedure parameter handling).
ReducedModel make_averaged_vertices(const Params& params, const ModelOptions& options = {});

/// The closed-loop averaged state matrix (for analysis and tests).
linalg::Matrix averaged_state_matrix(const LoopConstants& k);

// --- multi-loop PLL cascade / clock tree -----------------------------------
// A clock-distribution tree: `loops` averaged pump-vertex loops, each a
// (v_i, e_i) filter+phase pair, all coupled through one shared distribution
// rail s and through nothing else. States: [s, v_1, e_1, ..., v_K, e_K].
// The flow couples s <-> v_i and v_i <-> e_i only, so the model is the first
// in-tree input whose Lyapunov correlative-sparsity graph is genuinely
// non-complete (ROADMAP "Sparse-model workloads"): a clique-structured
// certificate template splits the Gram blocks, and the coupling pattern
// drives the native decomposed-cone benches.
struct ClockTreeOptions {
  std::size_t loops = 3;
  double coupling = 0.3;    // leaf <-> rail coupling strength
  double rail_leak = 1.0;   // rail self-stabilization rate
  double v_box = 8.0;       // |s|, |v_i| <= v_box
  double e_box = 1.0;       // |e_i| <= e_box
  double gain_scale = 0.0;  // multiplies kappa; 0 = auto (order-3 default)
  /// Optional nearest-neighbor leaf <-> leaf filter coupling (crosstalk
  /// between adjacent distribution branches): v_i additionally relaxes
  /// toward v_{i +- h} for h = 1..neighbor_hops with strength
  /// neighbor_coupling each. 0 keeps the pure star topology. With it on,
  /// the aggregate sparsity is a banded chain plus the rail hub, so the
  /// chordal cliques grow to ~2*neighbor_hops+2 vertices, so per-clique
  /// eigenwork dominates the decomposed solves.
  double neighbor_coupling = 0.0;
  std::size_t neighbor_hops = 1;
  /// Confine the crosstalk to disjoint clusters of this many consecutive
  /// loops (0 = one unbroken chain). Leaves i and j couple only when they
  /// sit in the same cluster, so with neighbor_hops >= cluster - 1 each
  /// cluster's filter nodes form a complete subgraph whose only tie to the
  /// rest of the tree is the rail. That shape matters for the decomposed
  /// solvers: a chain's consecutive cliques share all but one vertex
  /// (separator size ~2*hops+1, overlap couplings quadratic in the clique
  /// size), while clusters share exactly the rail (one overlap entry per
  /// clique-tree edge) — large per-clique eigenwork at near-constant
  /// consensus cost (the clock_tree benchmark workload).
  std::size_t cluster = 0;
};

struct ClockTreeModel {
  hybrid::HybridSystem system;
  LoopConstants constants;
  ClockTreeOptions options;
  std::size_t loops = 0;
  std::size_t rail_index = 0;  // the shared rail s
  std::size_t v_index(std::size_t i) const { return 1 + 2 * i; }
  std::size_t e_index(std::size_t i) const { return 2 + 2 * i; }
};

/// Build the single-mode averaged clock-tree model (loop constants from the
/// third-order column of `params`). Flow rows are assembled from precomputed
/// affine coefficient vectors (the shared-rail row in particular is built
/// once, not re-merged per loop), so trees with K in the hundreds construct
/// in milliseconds — the scale the clock-tree benchmark and examples run at.
ClockTreeModel make_clock_tree(const Params& params, const ClockTreeOptions& options = {});

/// Feasible min-trace SDP whose aggregate sparsity IS the clock-tree
/// coupling graph (the off-diagonal pattern of the closed-loop state matrix
/// A, x' = A x): one PSD block over all states, one equality row per
/// coupling edge, rhs taken from a known diagonally-dominant PSD witness
/// with that pattern. This is the workload of the decomposed-cone tests and
/// the clock-tree benchmark: its chordal cliques are the
/// loop pairs, so the conversion genuinely fires (unlike SOS-compiled Gram
/// blocks, whose aggregate patterns are complete). With
/// ClockTreeOptions::cluster set, the per-edge rows of each coupling family
/// are coarsened into one aggregate observable row per cluster — same
/// sparsity pattern and cliques, much smaller row space — so clique
/// eigenwork can dominate the consensus-side normal solve.
sdp::Problem clock_tree_coupling_sdp(const LoopConstants& k,
                                     const ClockTreeOptions& options);

}  // namespace soslock::pll
