#pragma once
// Independent certificate checker. SOS relaxations are *sound* only if the
// numerical certificate actually satisfies (i) the polynomial identity and
// (ii) Gram positive semidefiniteness. The IPM returns approximate iterates,
// so every certificate produced by the pipeline is re-audited here with
// tolerances that are explicit and separate from solver tolerances.
#include <limits>
#include <string>
#include <vector>

#include "hybrid/semialgebraic.hpp"
#include "poly/polynomial.hpp"
#include "sos/program.hpp"
#include "util/rng.hpp"

namespace soslock::sos {

struct CheckOptions {
  /// Allowed relative identity residual |p - b'Gb| / max(1, |p|_inf).
  double residual_tol = 1e-5;
  /// Allowed Gram eigenvalue deficit (relative to trace scale).
  double psd_tol = 1e-7;
};

struct CheckReport {
  bool ok = false;
  double min_eigenvalue = 0.0;   // of the Gram matrix
  double residual = 0.0;         // identity residual (relative)
  std::string detail;
};

/// Verify that `p` equals basis' G basis with G PSD (up to tolerances).
CheckReport check_gram_identity(const poly::Polynomial& p, const GramCertificate& cert,
                                const CheckOptions& options = {});

/// Scatter-sum the clique Gram certificates of one correlative-sparsity SOS
/// constraint into a single dense certificate over the union basis. The
/// result is PSD whenever every clique Gram is (a sum of padded PSD blocks —
/// Agler) and represents the same polynomial, so the dense audit applies
/// unchanged to sparse solves. Returns an empty-gram certificate when any
/// part's Gram does not match its basis (which the audit then rejects).
GramCertificate recombine_cliques(const std::vector<GramCertificate>& parts);

/// Decide numerically whether `p` is SOS by solving a fresh Gram SDP.
bool is_sos_numeric(const poly::Polynomial& p, double tolerance = 1e-7);

/// Extract an explicit SOS decomposition p ≈ sum_k q_k^2 from a certificate
/// (columns of the PSD square root); tiny negative eigenvalues are clamped.
std::vector<poly::Polynomial> sos_decomposition(const GramCertificate& cert, std::size_t nvars);

/// Sampling audit: min of `p` over `samples` random points of `set`'s
/// bounding box that lie inside `set`. A cheap necessary check that a claimed
/// nonnegativity actually holds on the region of interest.
struct SampleReport {
  double min_value = 0.0;
  linalg::Vector argmin;
  std::size_t inside = 0;  // how many sampled points were inside the set
};
SampleReport sample_minimum(const poly::Polynomial& p, const hybrid::SemialgebraicSet& set,
                            const std::vector<std::pair<double, double>>& box,
                            std::size_t samples, util::Rng& rng);

/// Full audit of a solved program: every recorded `p ∈ Σ` constraint is
/// re-checked (identity residual + Gram PSD margin), and every auxiliary
/// Gram block (SOS polynomial variables / multipliers) is checked for PSD.
/// A default report has checked nothing (worst_eigenvalue = +inf).
struct AuditReport {
  bool ok = false;
  std::size_t checked = 0;
  std::size_t failed = 0;
  double worst_residual = 0.0;
  double worst_eigenvalue = std::numeric_limits<double>::infinity();
  std::vector<std::string> failures;

  /// Combine with the audit of another program (a per-mode batch): counts
  /// and failures add up, the worst values are the worst of both, and ok
  /// holds iff no check of either failed. A default report is the identity.
  void merge(const AuditReport& other);
};
AuditReport audit(const SosProgram& program, const SolveResult& result,
                  const CheckOptions& options = {});

}  // namespace soslock::sos
