#pragma once
// End-to-end inevitability verification (the paper's Sec. 3 methodology and
// Algorithm 1):
//   P1: synthesize multiple Lyapunov certificates (SOS program 1), maximize
//       their level curves (SOS program 2)  ->  attractive invariant R1.
//   P2: advect the initial level set S(b_init) until it is certified immersed
//       in R1; if advection is inconclusive after N iterations, close the
//       argument with escape certificates on the residual region.
// Every step is timed so the whole report regenerates the paper's Table 2.
#include <string>
#include <vector>

#include "core/advection.hpp"
#include "core/escape.hpp"
#include "core/inclusion.hpp"
#include "core/level_set.hpp"
#include "core/lyapunov.hpp"
#include "util/timer.hpp"

namespace soslock::core {

enum class Verdict {
  VerifiedByAdvection,      // P1 ∧ P2 via immersion
  VerifiedWithEscape,       // P1 ∧ P2 via immersion + escape certificates
  AttractiveInvariantOnly,  // P1 proved, P2 inconclusive (paper's "No Answer")
  Failed,                   // no attractive invariant found
};

std::string to_string(Verdict verdict);

struct PipelineOptions {
  LyapunovOptions lyapunov;
  LevelSetOptions level;
  AdvectionOptions advection;
  EscapeOptions escape;
  InclusionOptions inclusion;
  int max_advection_iterations = 20;  // the paper's bounded N
  bool escape_fallback = true;        // Algorithm 1 lines 13-18
  /// The one solver configuration every stage's SOS queries run under:
  /// backend ("ipm" | "admm" | "auto"), sparsity exploitation, warm starts,
  /// and the thread budget of the batched per-mode stages.
  sdp::SolverConfig solver;
};

struct PipelineReport {
  Verdict verdict = Verdict::Failed;
  LyapunovResult lyapunov;
  LevelSetResult levels;
  AttractiveInvariant invariant;
  /// b_0 = initial set, then one entry per advection step.
  std::vector<poly::Polynomial> advection_iterates;
  int advection_iterations = 0;
  bool advection_included = false;
  std::vector<std::size_t> residual_modes;  // where immersion failed
  EscapeResult escape;
  /// Every SOS solve of the run merged: the stages above plus the advection
  /// and inclusion loops, whose per-step telemetry is not kept.
  sos::SolveStats solver;
  util::TimingTable timings;  // rows named after the paper's Table 2
  std::string message;

  std::string summary() const;
};

class InevitabilityVerifier {
 public:
  explicit InevitabilityVerifier(PipelineOptions options = {}) : options_(options) {}

  /// Verify inevitability of the origin equilibrium of `system`, starting
  /// from the initial region S(b_init) = {b_init <= 0}.
  PipelineReport verify(const hybrid::HybridSystem& system,
                        const poly::Polynomial& b_init) const;

  const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
};

}  // namespace soslock::core
