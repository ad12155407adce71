#include "core/certifier_common.hpp"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.hpp"

namespace soslock::core {

using hybrid::SemialgebraicSet;
using poly::Polynomial;
using poly::PolyLin;

void subtract_multipliers(sos::SosProgram& prog, PolyLin& expr, const SemialgebraicSet& set,
                          unsigned degree, const std::string& label,
                          const poly::MultiplierSparsity& csp) {
  for (std::size_t k = 0; k < set.constraints().size(); ++k) {
    const Polynomial& g = set.constraints()[k];
    const PolyLin sigma =
        prog.add_sos_poly(csp.multiplier_basis(g, degree), label + std::to_string(k));
    expr -= sigma * g;
  }
}

std::string certificate_count_error(const hybrid::HybridSystem& system,
                                    const std::vector<Polynomial>& certificates) {
  if (certificates.size() >= system.modes().size()) return {};
  return "need one certificate per mode (got " + std::to_string(certificates.size()) +
         " for " + std::to_string(system.modes().size()) + " modes)";
}

WarmChain WarmChain::through(sdp::WarmStart& cache, const sdp::SolverConfig& config) {
  if (!config.warm_start) return {};
  return {cache.empty() ? nullptr : &cache, &cache};
}

AuditedSolve solve_and_audit(const sos::SosProgram& prog, const sdp::SolverConfig& config,
                             const std::string& what, sos::SolveStats& stats,
                             WarmChain warm) {
  AuditedSolve out;
  out.solved = prog.solve(config, warm.in);
  if (warm.out != nullptr && !out.solved.warm.empty()) *warm.out = out.solved.warm;
  stats.absorb(out.solved);
  if (sos::solve_hard_failed(out.solved)) {
    out.message = what + " SOS program infeasible or unsolved (" +
                  sdp::to_string(out.solved.status) + ")";
    return out;
  }
  out.audit = sos::audit(prog, out.solved);
  if (!out.audit.ok) {
    out.message = what + " certificate failed audit: " +
                  (out.audit.failures.empty() ? "?" : out.audit.failures.front());
  }
  return out;
}

std::size_t run_per_mode(std::size_t count, const sdp::SolverConfig& config,
                         const PerModeTask& task) {
  const std::size_t first = config.warm_start && count > 1 ? 1 : 0;
  sdp::WarmStart seed;
  if (first == 1 && !task(0, config, {nullptr, &seed})) return 0;
  const WarmChain seeded{seed.empty() ? nullptr : &seed, nullptr};
  const sdp::SolverConfig shared = sdp::share_threads(config, count - first);
  const util::ThreadPool pool(config.threads);
  return first + pool.run_all_until_failure(count - first, [&](std::size_t i) {
           return task(first + i, shared, seeded);
         });
}

BoxScaling::BoxScaling(const SemialgebraicSet& domain, std::size_t nvars) {
  const auto box = hybrid::estimate_box(domain, nvars);
  map_.reserve(nvars);
  for (std::size_t i = 0; i < nvars; ++i) {
    const double s = std::max({std::fabs(box[i].first), std::fabs(box[i].second), 1e-9});
    map_.push_back(s * Polynomial::variable(nvars, i));
  }
}

Polynomial BoxScaling::operator()(const Polynomial& p) const { return p.substitute(map_); }

SemialgebraicSet BoxScaling::operator()(const SemialgebraicSet& set) const {
  SemialgebraicSet out(map_.size());
  for (const Polynomial& g : set.constraints()) out.add_constraint((*this)(g));
  return out;
}

namespace {

/// Substitution x_i -> reset_i(x) for the states; parameters map to
/// themselves.
std::vector<Polynomial> reset_substitution(const hybrid::Jump& jump, std::size_t nvars) {
  std::vector<Polynomial> repl(jump.reset.begin(), jump.reset.end());
  repl.reserve(nvars);
  for (std::size_t i = repl.size(); i < nvars; ++i)
    repl.push_back(Polynomial::variable(nvars, i));
  return repl;
}

}  // namespace

PolyLin compose_with_reset(const PolyLin& v, const hybrid::Jump& jump) {
  if (jump.is_identity_reset()) return v;
  const std::vector<Polynomial> repl = reset_substitution(jump, v.nvars());
  PolyLin composed(v.nvars());
  for (const auto& [m, coeff] : v.terms()) {
    const Polynomial composed_monomial = Polynomial::from_monomial(m, 1.0).substitute(repl);
    for (const auto& [mm, cc] : composed_monomial.terms()) composed.add_term(mm, cc * coeff);
  }
  return composed;
}

Polynomial compose_with_reset(const Polynomial& v, const hybrid::Jump& jump) {
  if (jump.is_identity_reset()) return v;
  return v.substitute(reset_substitution(jump, v.nvars()));
}

}  // namespace soslock::core
