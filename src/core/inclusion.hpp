#pragma once
// Certified set-inclusion tests between polynomial sublevel sets (Lemma 1 of
// the paper): S(b1) ⊆ S(b2) is certified by sigma ∈ Σ with
//   sigma * b1 - b2 ∈ Σ.
// Used by Algorithm 1 to decide when an advected level set has immersed into
// the attractive invariant.
#include <map>
#include <utility>
#include <vector>

#include "core/level_set.hpp"
#include "hybrid/system.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"

namespace soslock::core {

struct InclusionOptions {
  unsigned multiplier_degree = 2;
  double trace_regularization = 1e-7;
};

struct InclusionResult {
  bool included = false;          // certified
  sos::AuditReport audit;
  sos::SolveStats solver;         // backend telemetry for Table-2 rows
  std::string message;
  /// For per-mode checks: which modes failed (empty when included).
  std::vector<std::size_t> failed_modes;
};

class InclusionChecker {
 public:
  explicit InclusionChecker(InclusionOptions options = {}, sdp::SolverConfig config = {})
      : options_(options), config_(std::move(config)) {}

  /// Certify S(b1) ⊆ S(b2) globally.
  InclusionResult subset(const poly::Polynomial& b1, const poly::Polynomial& b2) const;

  /// Certify S(b1) ⊆ S(b2) restricted to a semialgebraic domain. `warm`
  /// optionally replays a structurally matching previous iterate; `warm_out`
  /// receives this solve's iterate for chaining (see SosProgram::solve).
  InclusionResult subset_on(const poly::Polynomial& b1, const poly::Polynomial& b2,
                            const hybrid::SemialgebraicSet& domain,
                            const sdp::WarmStart* warm = nullptr,
                            sdp::WarmStart* warm_out = nullptr) const;

  /// The hybrid immersion check of Algorithm 1: for every mode q,
  ///   x ∈ S(b) ∩ C_q  =>  V_q(x) <= level,
  /// so every hybrid state over S(b) lies in the attractive invariant at the
  /// jump-consistent level.
  InclusionResult subset_of_invariant(const poly::Polynomial& b,
                                      const hybrid::HybridSystem& system,
                                      const std::vector<poly::Polynomial>& certificates,
                                      double level) const;

 private:
  InclusionOptions options_;
  sdp::SolverConfig config_;
  /// Per-mode warm-start blobs chained across the repeated immersion checks
  /// of the advection loop (the mode-q program shape is identical from one
  /// advection iterate to the next). Gated by SolverConfig::warm_start; the
  /// checker is driven sequentially by the pipeline, so no synchronization.
  mutable std::map<std::size_t, sdp::WarmStart> mode_warm_cache_;
};

}  // namespace soslock::core
