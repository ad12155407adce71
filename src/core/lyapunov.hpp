#pragma once
// Multiple-Lyapunov-certificate synthesis for hybrid systems — the paper's
// SOS program 1 (Sec. 3, Theorem 1/2). For every mode q it searches a
// polynomial V_q with
//   (a) V_q - eps*||x||^2 ∈ Σ on C_q           (positive definiteness),
//   (b) -dV_q/dx · f_q(x,u) ∈ Σ on C_q × U     (flow decrease; strict adds
//       a margin*||x||^2 term — see the DESIGN.md rigor note),
//   (c) V_to(R_l(x)) - V_from(x) <= 0 on D_l   (jump non-increase; optional
//       strict margin),
// with all domain restrictions done by the S-procedure (one SOS multiplier
// per inequality of C_q, D_l and of the parameter box U).
#include <string>
#include <utility>
#include <vector>

#include "hybrid/system.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"

namespace soslock::core {

enum class FlowDecrease {
  NonStrict,  // -V̇ ∈ Σ (matches the paper's numerics; see DESIGN.md)
  Strict,     // -V̇ - margin*||x||^2 ∈ Σ (infeasible for idle CP PLL mode)
};

struct LyapunovOptions {
  unsigned certificate_degree = 4;   // degree of each V_q (even, >= 2)
  unsigned multiplier_degree = 2;    // degree of S-procedure multipliers (even)
  double positivity_margin = 1e-2;   // eps in (a)
  FlowDecrease flow_decrease = FlowDecrease::NonStrict;
  double strict_margin = 1e-3;       // margin in (b) when Strict
  double jump_margin = 0.0;          // >0 makes (c) strict
  /// When > 0, the flow-decrease condition (b) is only required outside the
  /// ball ||x|| <= exclude_ball_radius (practical stability: attractivity to
  /// a small neighbourhood). Needed when a bounded disturbance (e.g. the
  /// continuization ripple) makes exact decrease at the origin impossible.
  double exclude_ball_radius = 0.0;
  bool common_certificate = false;   // single V for all modes (ablation)
  /// Build each V_q over the cliques of the flow-coupling graph (see
  /// sparse_state_monomials) instead of the dense state-monomial template.
  /// On separable models (the clock-tree cascades) this keeps the
  /// derivative's correlative-sparsity graph non-complete, so
  /// SolverConfig::correlative_sparsity genuinely splits the Gram blocks; on
  /// fully-coupled models it degenerates to the dense template. A sound
  /// restriction either way (any found V is independently audited).
  bool sparse_template = false;
  /// Minimize the integral of V over the state box so the (later maximized)
  /// sublevel sets fill the mode domains — the paper's attractive invariants
  /// span essentially the whole voltage box (Figs. 2-3).
  bool maximize_region = false;
  double trace_regularization = 1e-7;
  /// Solve the modes as independent per-mode SOS programs on a pool of
  /// SolverConfig::threads workers instead of one joint SDP. The only
  /// cross-mode coupling is the jump non-increase condition (c), so the
  /// decoupled certificates are re-audited against every jump afterwards;
  /// when a jump audit fails the synthesizer falls back to the joint coupled
  /// solve.
  bool mode_parallel = false;
};

struct LyapunovResult {
  bool success = false;
  /// One certificate per mode (all identical when common_certificate).
  std::vector<poly::Polynomial> certificates;
  sos::AuditReport audit;        // independent certificate re-check
  sdp::SolveStatus status = sdp::SolveStatus::NumericalProblem;
  sos::SolveStats solver;        // backend telemetry for Table-2 rows
  std::string message;
};

/// A built (not yet solved) joint synthesis program: the SosProgram plus the
/// unknown certificate polynomial of every mode (all identical under
/// common_certificate). Exposed so external drivers — the design-space sweep
/// service (src/sweep) most of all — reuse the certifier's exact program
/// shape, solve it through their own backend / lowering cache, and audit the
/// result with sos::audit.
struct LyapunovProgram {
  sos::SosProgram program;
  std::vector<poly::PolyLin> v;
};

/// Build the joint multiple-Lyapunov SOS program for `system`: conditions
/// (a)-(c) with S-procedure restrictions, plus the maximize_region moment
/// objective when requested. The caller is responsible for a valid system
/// and an even certificate degree >= 2 (LyapunovSynthesizer::synthesize
/// checks both before coming here).
/// `config` contributes only its sparsity fields (the Gram structure is
/// fixed at constraint-add time).
LyapunovProgram build_lyapunov_program(const hybrid::HybridSystem& system,
                                       const LyapunovOptions& options,
                                       const sdp::SolverConfig& config = {});

class LyapunovSynthesizer {
 public:
  explicit LyapunovSynthesizer(LyapunovOptions options = {},
                               sdp::SolverConfig config = {})
      : options_(options), config_(std::move(config)) {}

  /// Synthesize certificates for `system`. States are variables
  /// [0, nstates); parameters enter through system.parameter_set().
  /// With options.mode_parallel the per-mode programs are solved
  /// concurrently and the jump coupling is re-audited afterwards (falling
  /// back to the joint coupled SDP when that audit fails).
  LyapunovResult synthesize(const hybrid::HybridSystem& system) const;

  const LyapunovOptions& options() const { return options_; }

 private:
  LyapunovResult synthesize_joint(const hybrid::HybridSystem& system) const;
  LyapunovResult synthesize_decoupled(const hybrid::HybridSystem& system) const;

  LyapunovOptions options_;
  sdp::SolverConfig config_;
};

/// Monomials of total degree in [min_deg, max_deg] involving only the first
/// `nstates` of `nvars` variables (certificates must not depend on u).
std::vector<poly::Monomial> state_monomials(std::size_t nvars, std::size_t nstates,
                                            unsigned max_deg, unsigned min_deg);

/// Clique-structured certificate template (LyapunovOptions::sparse_template):
/// monomials of total degree in [min_deg, max_deg] over each clique of the
/// chordal extension of the flow-coupling graph (x_i ~ x_j iff x_j appears
/// in some mode's f_i), unioned and deduplicated. Equals state_monomials
/// when the coupling graph is complete.
std::vector<poly::Monomial> sparse_state_monomials(const hybrid::HybridSystem& system,
                                                   unsigned max_deg, unsigned min_deg);

/// Couple the variables a jump's reset map entangles into a csp multiplier
/// plan: a certificate composed with the reset couples, within one monomial,
/// the union of every reset component's variables plus the states —
/// over-approximated soundly by a single monomial over all of them.
/// Identity resets add nothing. Shared by the Lyapunov and barrier
/// certifiers (both pre-couple every jump before drawing multiplier bases).
void couple_jump_reset(poly::MultiplierSparsity& csp, const hybrid::Jump& jump,
                       std::size_t nvars, std::size_t nstates);

}  // namespace soslock::core
