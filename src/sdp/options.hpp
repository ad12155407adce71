#pragma once
// Per-backend tuning knobs for the SDP solver backends (see sdp/solver.hpp
// for the backend interface and the shared SolverConfig that embeds these),
// plus the structure passes of the sdp/lowering pipeline.
#include <cstddef>

namespace soslock::sdp {

/// Which structure passes sdp::LoweringOptions requests. The SOS layer
/// lowers with the default (its correlative Gram split happens at compile
/// time, see SolverConfig::correlative_sparsity); Chordal is for
/// directly-built sdp::Problems.
enum class SparsityOptions {
  Off,          // no structure pass
  Correlative,  // no structure pass either: the split is a compile-time choice
  Chordal,      // chordal conversion of blocks >= ChordalOptions::min_block_size
};

/// Tuning for the SDP-level chordal conversion pass (SparsityOptions::Chordal).
struct ChordalOptions {
  /// Only blocks at least this large are considered for decomposition (the
  /// conversion adds overlap rows, which is a bad trade for small cones).
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
