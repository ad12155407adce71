#pragma once
// Per-backend tuning knobs for the SDP solver backends (see sdp/solver.hpp
// for the backend interface and the shared SolverConfig that embeds these),
// plus the structure-exploitation knob shared by the SOS compiler and the
// SDP conversion layer.
#include <cstddef>

namespace soslock::sdp {

/// How aggressively the pipeline exploits sparsity when compiling and
/// solving SOS programs. Threaded through sdp::SolverConfig (and with it
/// through every core certifier and PipelineOptions::solver).
enum class SparsityOptions {
  Off,          // one dense Gram block per SOS constraint (the PR 2 baseline)
  Correlative,  // split each Gram basis along the csp-graph cliques (poly/sparsity)
  Chordal,      // Correlative + chordal conversion of any remaining large PSD
                // block at the SDP level (sdp/chordal)
};

/// Tuning for the SDP-level chordal conversion pass (SparsityOptions::Chordal).
struct ChordalOptions {
  /// Only blocks at least this large are considered for decomposition (the
  /// conversion adds overlap couplings, which is a bad trade for small
  /// cones).
  std::size_t min_block_size = 24;
};

/// Interior-point (HKM predictor-corrector) tuning.
struct IpmOptions {
  double tolerance = 1e-7;        // relative gap + feasibility target
  int max_iterations = 120;
  /// Warm-start restore: X and Z are spectrally shifted so lambda_min >=
  /// warm_start_margin * (block scale). Too small leaves the iterate pinned
  /// to the previous active set (slow steps when the data moved); too large
  /// throws the previous solution away.
  double warm_start_margin = 0.15;
};

/// First-order operator-splitting (ADMM on the dual) tuning. The per-iteration
/// cost is one cached m x m triangular solve plus one eigendecomposition per
/// PSD block, so large Gram blocks are much cheaper per iteration than the
/// IPM's Schur assembly — at the price of many more iterations and lower
/// final accuracy.
struct AdmmOptions {
  double tolerance = 1e-6;        // max of primal/dual residual and gap
  int max_iterations = 20000;
  double rho = 1.0;               // initial augmented-Lagrangian penalty
};

}  // namespace soslock::sdp
