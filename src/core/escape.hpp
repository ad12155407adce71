#pragma once
// Escape certificates (the paper's Proposition 1 / Algorithm 1 lines 14-18).
// For the region where advection is inconclusive,
//   T_q = S(b) ∩ {V_q >= level} ∩ C_q x U,
// we search a differentiable E with dE/dx · f_q <= -rho (rho > 0) on T_q.
// Trajectories then leave T_q in finite time; since they cannot cross back
// through the advected front, they enter the attractive invariant.
#include <utility>
#include <vector>

#include "hybrid/system.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"

namespace soslock::core {

struct EscapeOptions {
  unsigned certificate_degree = 4;  // degree of E (the paper used degree 4)
  unsigned multiplier_degree = 2;
  double rho_cap = 10.0;            // keeps "maximize rho" bounded
  double rho_min = 1e-6;            // required certified decrease rate
  double coeff_cap = 100.0;         // bound on |E| coefficients (scale fix)
  bool per_mode = true;             // one certificate per mode (as the paper)
  double trace_regularization = 1e-7;
};

struct EscapeResult {
  bool success = false;
  /// One certificate per requested mode (repeated when a common E is used).
  std::vector<poly::Polynomial> certificates;
  std::vector<double> rates;        // certified rho per mode
  int num_certificates = 0;
  sos::AuditReport audit;
  sos::SolveStats solver;           // backend telemetry for Table-2 rows
  std::string message;
};

class EscapeCertifier {
 public:
  explicit EscapeCertifier(EscapeOptions options = {}, sdp::SolverConfig config = {})
      : options_(options), config_(std::move(config)) {}

  /// Certify escape from S(region) ∩ {V_q >= level} for each mode in `modes`.
  /// With per_mode the certificates are independent SDPs, solved on a pool
  /// of SolverConfig::threads workers.
  EscapeResult certify(const hybrid::HybridSystem& system,
                       const std::vector<std::size_t>& modes,
                       const poly::Polynomial& region,
                       const std::vector<poly::Polynomial>& certificates,
                       double level) const;

  /// Escape from an arbitrary semialgebraic set under one mode's flow
  /// (building block; also used directly by tests and examples).
  EscapeResult certify_set(const hybrid::HybridSystem& system, std::size_t mode,
                           const hybrid::SemialgebraicSet& set) const;

 private:
  EscapeOptions options_;
  sdp::SolverConfig config_;
};

}  // namespace soslock::core
