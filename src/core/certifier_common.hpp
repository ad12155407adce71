#pragma once
// Mechanics shared by the core certifiers (internal to src/core). Every
// certifier of the paper's chain — Lyapunov synthesis, level maximisation,
// advection, inclusion, escape, and the rate and barrier extensions — builds
// an S-procedure SOS program around its own polynomial, solves it and audits
// the certificate. Each of those steps is implemented once, here.
#include <functional>
#include <string>
#include <vector>

#include "hybrid/system.hpp"
#include "poly/sparsity.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"

namespace soslock::core {

/// S-procedure: subtract sigma_k * g_k from `expr` for every constraint g_k
/// of `set`. Each sigma_k is a fresh SOS multiplier of degree `degree`
/// labelled `label` + k; its Gram basis is restricted to the csp clique
/// covering vars(g_k) (see poly::MultiplierSparsity).
void subtract_multipliers(sos::SosProgram& prog, poly::PolyLin& expr,
                          const hybrid::SemialgebraicSet& set, unsigned degree,
                          const std::string& label, const poly::MultiplierSparsity& csp);

/// Empty when `certificates` holds one certificate per mode of `system`;
/// otherwise the message the per-mode entry points fail with.
std::string certificate_count_error(const hybrid::HybridSystem& system,
                                    const std::vector<poly::Polynomial>& certificates);

/// Warm-start plumbing of one solve: `in` replays a structurally matching
/// previous iterate (see SosProgram::solve); a non-empty exported blob is
/// written to `*out`.
struct WarmChain {
  const sdp::WarmStart* in = nullptr;
  sdp::WarmStart* out = nullptr;

  /// Chained through `cache` when config.warm_start: replay it when
  /// non-empty and keep this solve's blob in it. An infeasible solve
  /// exports no blob, so the previous one survives for the next attempt.
  static WarmChain through(sdp::WarmStart& cache, const sdp::SolverConfig& config);
};

struct AuditedSolve {
  sos::SolveResult solved;
  sos::AuditReport audit;  // empty when the solve hard-failed
  std::string message;     // empty iff the certificate was accepted
  bool ok() const { return message.empty(); }
};

/// The one solve tail of the certifiers: solve `prog`, absorb the solver
/// telemetry into `stats`, and decide acceptance. Certified-infeasible
/// outcomes and residual blowup (sos::solve_hard_failed) are rejected
/// outright with "<what> SOS program infeasible or unsolved (<status>)".
/// Anything else, including an objective-stalled MaxIterations iterate, is
/// decided by the independent sos::audit: a feasible-but-suboptimal iterate
/// still yields a sound certificate. A failed audit reads "<what>
/// certificate failed audit: <first failure>".
AuditedSolve solve_and_audit(const sos::SosProgram& prog, const sdp::SolverConfig& config,
                             const std::string& what, sos::SolveStats& stats,
                             WarmChain warm = {});

/// One item of run_per_mode: solve item `i` under `config` with `warm` and
/// return whether it succeeded.
using PerModeTask =
    std::function<bool(std::size_t i, const sdp::SolverConfig& config, WarmChain warm)>;

/// The per-mode schedule of the batched certifiers. With config.warm_start
/// and more than one item, item 0 runs alone with the full `config` and its
/// exported iterate seeds the others (per-mode programs share one shape; a
/// mismatched blob is rejected by its fingerprint and solves cold). The
/// remaining items run on a pool of config.threads workers, each under
/// sdp::share_threads(config, items on the pool). Items not yet started
/// when one fails are skipped. Returns the lowest failed index, or `count`
/// when every item succeeded. No item's program or seed depends on the
/// thread count, and the backends are bit-identical at any thread budget,
/// so successful runs are bit-identical at any thread count.
std::size_t run_per_mode(std::size_t count, const sdp::SolverConfig& config,
                         const PerModeTask& task);

/// Change of variables x_i -> s_i * x_i onto the bounding box of a domain,
/// s_i = max(|lo_i|, |hi_i|, 1e-9). High-degree monomials over wide voltage
/// boxes otherwise span many orders of magnitude and wreck the SDP
/// conditioning; levels and set inclusions are invariant under it.
class BoxScaling {
 public:
  BoxScaling(const hybrid::SemialgebraicSet& domain, std::size_t nvars);

  poly::Polynomial operator()(const poly::Polynomial& p) const;
  hybrid::SemialgebraicSet operator()(const hybrid::SemialgebraicSet& set) const;

 private:
  std::vector<poly::Polynomial> map_;
};

/// `v` composed with the numeric reset map of `jump` (v itself for an
/// identity reset); parameters map to themselves.
poly::PolyLin compose_with_reset(const poly::PolyLin& v, const hybrid::Jump& jump);
poly::Polynomial compose_with_reset(const poly::Polynomial& v, const hybrid::Jump& jump);

}  // namespace soslock::core
