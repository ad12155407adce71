#include "sos/checker.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen_sym.hpp"
#include "poly/basis.hpp"
#include "util/log.hpp"

namespace soslock::sos {

using linalg::Matrix;
using poly::Polynomial;

CheckReport check_gram_identity(const Polynomial& p, const GramCertificate& cert,
                                const CheckOptions& options) {
  CheckReport report;
  if (cert.gram.rows() != cert.basis.size()) {
    report.detail = "gram size does not match basis";
    return report;
  }
  // (i) identity residual
  const Polynomial reconstructed = cert.polynomial(p.nvars());
  const Polynomial residual = p - reconstructed;
  const double scale = std::max(1.0, p.coeff_norm_inf());
  report.residual = residual.coeff_norm_inf() / scale;

  // (ii) PSD margin, relative to the Gram scale
  if (cert.gram.rows() == 0) {
    report.min_eigenvalue = 0.0;
  } else {
    report.min_eigenvalue = linalg::min_eigenvalue(cert.gram);
  }
  double trace = 0.0;
  for (std::size_t i = 0; i < cert.gram.rows(); ++i) trace += cert.gram(i, i);
  const double gram_scale = std::max(1.0, trace / std::max<std::size_t>(1, cert.gram.rows()));

  const bool identity_ok = report.residual <= options.residual_tol;
  const bool psd_ok = report.min_eigenvalue >= -options.psd_tol * gram_scale;
  report.ok = identity_ok && psd_ok;
  if (!identity_ok) report.detail += "identity residual too large; ";
  if (!psd_ok) report.detail += "gram not PSD within tolerance; ";
  return report;
}

GramCertificate recombine_cliques(const std::vector<GramCertificate>& parts) {
  GramCertificate out;
  if (parts.empty()) return out;
  out.label = parts.front().label;
  const std::string::size_type cut = out.label.rfind(".clique");
  if (cut != std::string::npos) out.label.resize(cut);
  for (const GramCertificate& part : parts) {
    out.basis.insert(out.basis.end(), part.basis.begin(), part.basis.end());
  }
  std::sort(out.basis.begin(), out.basis.end());
  out.basis.erase(std::unique(out.basis.begin(), out.basis.end()), out.basis.end());
  for (const GramCertificate& part : parts) {
    if (part.gram.rows() != part.basis.size()) return out;  // empty gram: unverifiable
  }
  out.gram = linalg::Matrix(out.basis.size(), out.basis.size());
  for (const GramCertificate& part : parts) {
    std::vector<std::size_t> pos(part.basis.size());
    for (std::size_t i = 0; i < part.basis.size(); ++i) {
      pos[i] = static_cast<std::size_t>(
          std::lower_bound(out.basis.begin(), out.basis.end(), part.basis[i]) -
          out.basis.begin());
    }
    for (std::size_t r = 0; r < part.basis.size(); ++r)
      for (std::size_t c = 0; c < part.basis.size(); ++c)
        out.gram(pos[r], pos[c]) += part.gram(r, c);
  }
  return out;
}

bool is_sos_numeric(const Polynomial& p, double tolerance) {
  if (p.is_zero()) return true;
  SosProgram prog(p.nvars());
  prog.set_trace_regularization(1e-8);
  prog.add_sos_constraint(p, "is_sos");
  sdp::SolverConfig config;
  config.backend = "ipm";  // the audit needs second-order accuracy
  config.tolerance = tolerance;
  const SolveResult result = prog.solve(config);
  if (!result.feasible) return false;
  // Audit the returned certificate rather than trusting the solver status.
  const CheckReport report = check_gram_identity(p, result.grams.front(), {});
  return report.ok;
}

std::vector<Polynomial> sos_decomposition(const GramCertificate& cert, std::size_t nvars) {
  const Matrix root = linalg::sqrt_psd(cert.gram);
  std::vector<Polynomial> terms;
  const std::size_t n = cert.basis.size();
  terms.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    // q_k = sum_r root(k, r) * basis_r  (rows of the symmetric square root).
    Polynomial q(nvars);
    for (std::size_t r = 0; r < n; ++r) {
      if (root(k, r) != 0.0) q.add_term(cert.basis[r], root(k, r));
    }
    if (!q.is_zero()) terms.push_back(std::move(q));
  }
  return terms;
}

SampleReport sample_minimum(const Polynomial& p, const hybrid::SemialgebraicSet& set,
                            const std::vector<std::pair<double, double>>& box,
                            std::size_t samples, util::Rng& rng) {
  SampleReport report;
  report.min_value = std::numeric_limits<double>::infinity();
  linalg::Vector x(p.nvars(), 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t i = 0; i < box.size() && i < x.size(); ++i)
      x[i] = rng.uniform(box[i].first, box[i].second);
    if (!set.empty() && !set.contains(x)) continue;
    ++report.inside;
    const double v = p.eval(x);
    if (v < report.min_value) {
      report.min_value = v;
      report.argmin = x;
    }
  }
  if (report.inside == 0) report.min_value = 0.0;
  return report;
}

AuditReport audit(const SosProgram& program, const SolveResult& result,
                  const CheckOptions& options) {
  AuditReport report;

  // (a) every explicit SOS constraint: identity + PSD. A sparse constraint
  // owns one Gram block per clique; they recombine into the dense
  // certificate the identity/PSD check was written for, so the soundness
  // verdict is decided in exactly the same terms as a dense solve.
  for (const auto& record : program.sos_records()) {
    ++report.checked;
    const Polynomial target = result.value(record.target);
    CheckReport check;
    if (record.gram_indices.size() == 1) {
      check = check_gram_identity(target, result.grams[record.gram_indices.front()], options);
    } else {
      std::vector<GramCertificate> parts;
      parts.reserve(record.gram_indices.size());
      for (const std::size_t g : record.gram_indices) parts.push_back(result.grams[g]);
      check = check_gram_identity(target, recombine_cliques(parts), options);
    }
    report.worst_residual = std::max(report.worst_residual, check.residual);
    report.worst_eigenvalue = std::min(report.worst_eigenvalue, check.min_eigenvalue);
    if (!check.ok) {
      ++report.failed;
      report.failures.push_back("constraint '" + record.label + "': " + check.detail);
    }
  }

  // (b) every Gram block must be PSD (covers SOS polynomial variables whose
  // identity holds by construction).
  for (const auto& cert : result.grams) {
    ++report.checked;
    if (cert.gram.rows() == 0) continue;
    const double min_eig = linalg::min_eigenvalue(cert.gram);
    report.worst_eigenvalue = std::min(report.worst_eigenvalue, min_eig);
    double trace = 0.0;
    for (std::size_t i = 0; i < cert.gram.rows(); ++i) trace += cert.gram(i, i);
    const double scale = std::max(1.0, trace / static_cast<double>(cert.gram.rows()));
    if (min_eig < -options.psd_tol * scale) {
      ++report.failed;
      report.failures.push_back("gram '" + cert.label + "' not PSD (min eig " +
                                std::to_string(min_eig) + ")");
    }
  }

  report.ok = report.failed == 0;
  return report;
}

void AuditReport::merge(const AuditReport& other) {
  checked += other.checked;
  failed += other.failed;
  worst_residual = std::max(worst_residual, other.worst_residual);
  worst_eigenvalue = std::min(worst_eigenvalue, other.worst_eigenvalue);
  failures.insert(failures.end(), other.failures.begin(), other.failures.end());
  ok = failed == 0;
}

}  // namespace soslock::sos
