#pragma once
// Per-backend tuning knobs for the SDP solver backends (see sdp/solver.hpp
// for the backend interface and the shared SolverConfig that embeds these),
// plus the structure-exploitation knob shared by the SOS compiler and the
// SDP conversion layer.
#include <cstddef>
#include <string>
#include <vector>

namespace soslock::sdp {

/// How aggressively the pipeline exploits sparsity when compiling and
/// solving SOS programs. Threaded through sdp::SolverConfig (and with it
/// through every core options struct and PipelineOptions).
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
  /// Skip the decomposition of a block when the largest clique still covers
  /// more than this fraction of it (nothing to win, couplings to lose).
  double max_clique_fraction = 0.9;
};

/// Interior-point (HKM predictor-corrector) tuning.
struct IpmOptions {
  double tolerance = 1e-7;        // relative gap + feasibility target
  int max_iterations = 120;
  double step_fraction = 0.98;    // fraction of the distance to the boundary
  bool predictor_corrector = true;
  double free_var_regularization = 1e-10;  // delta on the free-var Schur block
  double infeasibility_threshold = 1e8;    // ||y|| blowup => infeasibility cert
  /// Warm-start restore: X and Z are spectrally shifted so lambda_min >=
  /// warm_start_margin * (block scale). Too small leaves the iterate pinned
  /// to the previous active set (slow steps when the data moved); too large
  /// throws the previous solution away.
  double warm_start_margin = 0.15;
  bool verbose = false;
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
  bool adaptive_rho = true;       // residual-balancing penalty updates
  double rho_scale = 2.0;         // multiplicative rho step (clamp per update)
  double residual_balance = 10.0; // trigger ratio for an update
  int rho_update_interval = 50;   // iterations between update checks
  /// Over-relaxation factor alpha in [1, 1.95]; ~1.6 damps the tail
  /// oscillation of the splitting on well-posed problems.
  double over_relaxation = 1.6;
  /// Worker threads for the per-iteration PSD projections (one
  /// eigendecomposition per block; blocks are independent): the only
  /// intra-solve fan-out of either backend. 0 = hardware count; 1 = serial.
  /// Deterministic across thread counts (disjoint per-block writes,
  /// order-independent max-reduction).
  std::size_t threads = 1;
  bool verbose = false;
};

/// Declarative retry/fallback policy of the resilience layer
/// (sdp/resilience.hpp), carried on SolverConfig. Generalizes the "auto"
/// backend's hard-coded ADMM -> IPM rescue: an unusable result is retried on
/// the same backend with deterministically jittered options, then escalated
/// along a fallback chain, every step warm-started from the best usable
/// iterate so far and recorded as RecoveryRecord telemetry.
struct ResiliencePolicy {
  /// Master switch: off = a failed solve returns as-is, no retries and no
  /// fallback (the raw single-backend behavior).
  bool enabled = true;
  /// Same-backend retries before the fallback chain is consulted. Retries
  /// apply to transient/numerical failures (Diverged, Faulted,
  /// NumericalProblem); a deterministic stall (MaxIterations with bad
  /// residuals) escalates straight to the chain — re-running the identical
  /// stall is the one recovery known not to help.
  int max_retries = 1;
  /// Sleep between attempts, for transient-resource failure hygiene.
  double backoff_seconds = 0.0;
  /// Multiplicative perturbation per retry: attempt k scales the ADMM rho
  /// and the IPM warm-start margin by an alternating expansion/contraction
  /// factor derived from k — deterministic, no RNG, so a retried solve is
  /// reproducible.
  double rho_jitter = 0.5;
  /// Backends to escalate to after retries, in order. Empty = the auto
  /// default: any failing backend other than "ipm" escalates to "ipm" (the
  /// high-accuracy backend), reproducing the old hard-coded recovery.
  std::vector<std::string> fallback_chain;
};

}  // namespace soslock::sdp
