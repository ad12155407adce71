#pragma once
// Level-curve maximisation — the paper's second SOS program. For each mode q
// we find the largest c_q with {V_q <= c_q} contained in the mode domain C_q,
// certified constraint-wise by Lemma 1:
//   V_q - c_q + sigma_k * g_k ∈ Σ   (sigma_k ∈ Σ)
// which proves {g_k <= 0} => {V_q >= c_q}, i.e. the open sublevel set lies in
// the interior of C_q. Since c_q enters affinely, the maximisation is a
// single SDP per mode — no bisection needed.
#include <utility>
#include <vector>

#include "hybrid/system.hpp"
#include "sos/program.hpp"

namespace soslock::core {

struct LevelSetOptions {
  unsigned multiplier_degree = 2;
  double level_cap = 1e6;  // upper bound keeping the SDP bounded
};

struct LevelSetResult {
  bool success = false;
  /// Per-mode maximal levels c_q (paper's c_i^max, plotted in Figs. 2-3).
  std::vector<double> levels;
  /// min_q levels[q]: with jump non-increase, the union of {V_q <= c} over
  /// modes at this common level is invariant under both flow and jumps.
  double consistent_level = 0.0;
  sos::SolveStats solver;  // backend telemetry for Table-2 rows
  std::string message;
};

/// The attractive invariant A_I = union of maximized sublevel sets (Th. 2).
struct AttractiveInvariant {
  std::vector<poly::Polynomial> certificates;  // V_q
  std::vector<double> levels;                  // c_q (per-mode maxima)
  double consistent_level = 0.0;

  /// Membership test (union over modes at per-mode levels).
  bool contains(const linalg::Vector& x_full) const;
  /// Membership at the jump-consistent common level.
  bool contains_consistent(const linalg::Vector& x_full) const;
};

class LevelSetMaximizer {
 public:
  explicit LevelSetMaximizer(LevelSetOptions options = {}, sdp::SolverConfig config = {})
      : options_(options), config_(std::move(config)) {}

  /// Maximize the level of `v` inside `domain` (one mode). `warm` optionally
  /// replays a structurally matching previous iterate (see
  /// SosProgram::solve); `warm_out`, when non-null, receives this solve's
  /// iterate for chaining.
  LevelSetResult maximize_one(const poly::Polynomial& v,
                              const hybrid::SemialgebraicSet& domain,
                              const sdp::WarmStart* warm = nullptr,
                              sdp::WarmStart* warm_out = nullptr) const;

  /// All modes of a system, solved on a pool of SolverConfig::threads
  /// workers; returns per-mode levels + the consistent level. With
  /// SolverConfig::warm_start the first mode's iterate warm-starts the
  /// remaining modes (PLL mode programs are structurally identical, so this
  /// costs one sequential solve and accelerates the parallel rest).
  LevelSetResult maximize(const hybrid::HybridSystem& system,
                          const std::vector<poly::Polynomial>& certificates) const;

 private:
  LevelSetOptions options_;
  sdp::SolverConfig config_;
};

}  // namespace soslock::core
