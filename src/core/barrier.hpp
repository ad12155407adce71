#pragma once
// Barrier certificates for safety of hybrid systems (Prajna & Jadbabaie,
// reference [11] of the paper): a polynomial B with
//   B(x) <= 0            on the initial set X0        (per mode),
//   B(x) >  0            on the unsafe set Xu         (per mode),
//   dB/dx · f_q <= 0     on C_q x U                   (flow condition),
//   B(R_l(x)) <= B(x)    on each guard D_l            (jump condition),
// proves that no trajectory from X0 ever reaches Xu. For the CP PLL this
// verifies e.g. "the control voltage never exceeds the supply rail while
// acquiring lock" — the safety companion of the inevitability property.
#include <utility>

#include "hybrid/system.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"

namespace soslock::core {

struct BarrierOptions {
  unsigned certificate_degree = 4;
  unsigned multiplier_degree = 2;
  double unsafe_margin = 1e-3;  // B >= margin on the unsafe set
  bool common_certificate = true;  // single B across modes (else one per mode)
  double trace_regularization = 1e-7;
};

struct BarrierResult {
  bool success = false;
  std::vector<poly::Polynomial> certificates;  // per mode
  sos::AuditReport audit;
  sos::SolveStats solver;  // backend telemetry
  std::string message;
};

class BarrierCertifier {
 public:
  explicit BarrierCertifier(BarrierOptions options = {}, sdp::SolverConfig config = {})
      : options_(options), config_(std::move(config)) {}

  /// Synthesize a barrier separating `initial` from `unsafe` under every
  /// mode's flow (both sets over the full variable space of `system`).
  BarrierResult certify(const hybrid::HybridSystem& system,
                        const hybrid::SemialgebraicSet& initial,
                        const hybrid::SemialgebraicSet& unsafe) const;

 private:
  BarrierOptions options_;
  sdp::SolverConfig config_;
  /// Iterate of the most recent solve, replayed into the next certify()
  /// call — margin/degree sweeps re-certify one compiled shape over and
  /// over (a mismatched blob is rejected by its fingerprint and solves
  /// cold). Gated by SolverConfig::warm_start; driven sequentially.
  mutable sdp::WarmStart warm_cache_;
};

}  // namespace soslock::core
