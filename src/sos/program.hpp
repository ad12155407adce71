#pragma once
// Sum-of-squares programming layer (the role YALMIP's SOS module played for
// the paper). Models unknown polynomials, SOS constraints and S-procedure
// multipliers, compiles them to one block SDP, and extracts certificates.
//
// Decision variables form one global index space. Each is either a *free*
// scalar (an unconstrained polynomial coefficient, an objective like a level
// value c, ...) or a *Gram entry* G_rc of some PSD block introduced by an SOS
// polynomial or an SOS constraint.
#include <string>
#include <vector>

#include "poly/basis.hpp"
#include "poly/poly_lin.hpp"
#include "poly/sparsity.hpp"
#include "sdp/problem.hpp"
#include "sdp/solver.hpp"

namespace soslock::sdp {
struct Lowering;
struct LoweringOptions;
class LoweringCache;
}  // namespace soslock::sdp

namespace soslock::sos {

/// Fresh csp multiplier plan for a certifier program — the single policy
/// point deciding whether a SolverConfig's sparsity mode restricts
/// S-procedure multiplier bases. Callers couple() their data polynomials
/// before drawing the first multiplier basis (see poly::MultiplierSparsity).
inline poly::MultiplierSparsity multiplier_plan(std::size_t nvars,
                                                const sdp::SolverConfig& config) {
  return poly::MultiplierSparsity(nvars, config.sparsity != sdp::SparsityOptions::Off);
}

/// A PSD Gram block: the polynomial it represents is basis' * G * basis.
struct GramBlock {
  std::vector<poly::Monomial> basis;
  std::vector<int> entry_vars;  // decision ids for entries (r<=c, row-major upper)
  std::string label;
};

struct SolveResult;

class SosProgram {
 public:
  /// `nvars` = number of polynomial indeterminates (states + parameters).
  explicit SosProgram(std::size_t nvars);

  std::size_t nvars() const { return nvars_; }

  // --- Decision variables -------------------------------------------------

  /// New free scalar decision variable; returns it as a LinExpr.
  poly::LinExpr add_scalar(const std::string& name = "");

  /// Unknown polynomial with the given monomial support (all coefficients
  /// free scalars).
  poly::PolyLin add_poly(const std::vector<poly::Monomial>& support,
                         const std::string& name = "");
  /// Unknown polynomial with full support of total degree in [min_deg, max_deg].
  poly::PolyLin add_poly(unsigned max_deg, unsigned min_deg = 0,
                         const std::string& name = "");

  /// Unknown SOS polynomial: creates a Gram PSD block over `gram_basis` and
  /// returns basis' G basis as a PolyLin (coefficients linear in Gram vars).
  poly::PolyLin add_sos_poly(const std::vector<poly::Monomial>& gram_basis,
                             const std::string& name = "");
  /// Gram basis = all monomials of degree <= max_deg/2 (>= min_deg/2).
  poly::PolyLin add_sos_poly(unsigned max_deg, unsigned min_deg = 0,
                             const std::string& name = "");

  // --- Constraints ----------------------------------------------------------

  /// Require p(x) == 0 identically (coefficient matching).
  void add_eq_zero(const poly::PolyLin& p, const std::string& label = "");
  /// Require p ∈ Σ[x]: introduces a Gram block (basis pruned from the support
  /// of p via the Newton-polytope box bound when `prune`).
  void add_sos_constraint(const poly::PolyLin& p, const std::string& label = "",
                          bool prune = true);
  /// Scalar affine equality e == 0.
  void add_linear_eq(const poly::LinExpr& e, const std::string& label = "");
  /// Scalar affine inequality e >= 0 (1x1 PSD slack).
  void add_linear_ge(const poly::LinExpr& e, const std::string& label = "");

  // --- Objective ------------------------------------------------------------

  void minimize(const poly::LinExpr& objective);
  void maximize(const poly::LinExpr& objective);

  /// Add w * trace(G) to the minimization objective for every Gram block;
  /// regularizes pure feasibility problems (keeps Gram matrices small and
  /// well inside the cone).
  void set_trace_regularization(double weight) { trace_reg_ = weight; }

  /// Sparsity exploitation. Must be set *before* SOS constraints are added:
  /// Correlative (and Chordal) split each constraint's Gram basis along the
  /// csp-graph cliques at add_sos_constraint time; Chordal additionally runs
  /// the clique-decomposition passes of the sdp/lowering pipeline inside
  /// solve() (native DecomposedCone lowering). Warm blobs live in the pre-lowering space and
  /// remap per clique, so they survive pass-parameter changes; modes that
  /// compile different Gram blocks (Off vs Correlative) still separate
  /// naturally through the compiled structure fingerprint. The core
  /// certifiers forward SolverConfig::sparsity.
  void set_sparsity(sdp::SparsityOptions sparsity) { sparsity_ = sparsity; }
  sdp::SparsityOptions sparsity() const { return sparsity_; }
  /// Tuning for the Chordal conversion pass (block-size threshold etc).
  void set_chordal_options(const sdp::ChordalOptions& options) { chordal_ = options; }
  /// Convenience for the core certifiers: adopt the sparsity fields of the
  /// shared solver config (call before adding SOS constraints).
  void set_sparsity(const sdp::SolverConfig& config);

  // --- Solve ----------------------------------------------------------------

  /// Compile and solve with the backend selected by `config` (backend name
  /// "ipm" / "admm" / "auto"; see sdp/solver.hpp). `warm` optionally replays
  /// a previous solve's iterate (SolveResult::warm): it is restored when its
  /// structure fingerprint matches the compiled program and ignored
  /// otherwise, so callers can pass the blob unconditionally across retry
  /// loops whose program shape may drift.
  SolveResult solve(const sdp::SolverConfig& config = {},
                    const sdp::WarmStart* warm = nullptr) const;
  /// Compile and solve with a caller-owned backend and runtime context
  /// (wall-clock budget, cancellation, per-iteration telemetry,
  /// context.warm_start — fingerprint-checked here like `warm` above).
  SolveResult solve(const sdp::SolverBackend& backend, sdp::SolveContext& context) const;
  /// Same, but lowering through the caller's sdp::LoweringCache: when this
  /// compile is structurally identical to the cached one, the in-place
  /// coefficient-update pass replaces the full analyze→decompose→lower
  /// pipeline (the sweep hot path — see src/sweep/). One cache per thread;
  /// it must outlive the returned Lowering's use, i.e. the call.
  SolveResult solve(const sdp::SolverBackend& backend, sdp::SolveContext& context,
                    sdp::LoweringCache& cache) const;

  /// Compile to the underlying SDP (exposed for tests and benchmarks).
  sdp::Problem compile() const;

  std::size_t num_decision_vars() const { return var_is_free_.size(); }
  const std::vector<GramBlock>& gram_blocks() const { return gram_blocks_; }
  std::size_t num_constraints() const { return eq_rows_.size() + linear_rows_.size(); }

  /// Record of one `p ∈ Σ` constraint, kept so solved certificates can be
  /// independently re-audited (see sos/checker.hpp). With sparsity enabled a
  /// constraint owns one Gram block per csp clique; the audit recombines
  /// them into one dense certificate (sos::recombine_cliques).
  struct SosConstraintRecord {
    poly::PolyLin target;       // the constrained polynomial (decision-linear)
    std::vector<std::size_t> gram_indices;  // Gram block(s) allocated for it
    std::string label;
  };
  const std::vector<SosConstraintRecord>& sos_records() const { return sos_records_; }

 private:
  friend struct SolveResult;

  int new_free_var(const std::string& name);
  int new_gram_var();
  /// The pipeline options this program's sparsity settings imply.
  sdp::LoweringOptions lowering_options() const;
  /// Shared back half of every solve(): warm remap, backend call, recovery,
  /// certificate extraction — everything downstream of the lowering.
  SolveResult solve_lowered(const sdp::SolverBackend& backend, sdp::SolveContext& context,
                            const sdp::Lowering& lowering) const;
  struct GramRef;
  /// coeff * G_rc into the coefficient `a` of g's block, for a row or the
  /// objective.
  static void add_gram_coeff(sdp::SparseSym& a, const GramRef& g, double coeff);

  std::size_t nvars_;
  // Decision variable table: free vars get an SDP free index, gram vars map
  // to (block, r, c).
  std::vector<bool> var_is_free_;
  std::vector<std::size_t> var_free_index_;            // valid when free
  struct GramRef {
    std::size_t block = 0, r = 0, c = 0;
  };
  std::vector<GramRef> var_gram_ref_;                  // valid when !free
  std::vector<std::string> free_names_;
  std::size_t num_free_ = 0;

  std::vector<GramBlock> gram_blocks_;

  struct EqRow {
    poly::Monomial monomial;     // provenance
    poly::LinExpr expr;          // expr == 0
    std::string label;
  };
  std::vector<EqRow> eq_rows_;
  struct LinRow {
    poly::LinExpr expr;
    bool is_equality;            // else: expr >= 0
    std::string label;
  };
  std::vector<LinRow> linear_rows_;

  poly::LinExpr objective_;      // always stored in minimization form
  bool objective_is_max_ = false;
  double trace_reg_ = 0.0;
  sdp::SparsityOptions sparsity_ = sdp::SparsityOptions::Off;
  sdp::ChordalOptions chordal_;
  std::vector<SosConstraintRecord> sos_records_;
};

/// A Gram certificate extracted from a solved program.
struct GramCertificate {
  std::vector<poly::Monomial> basis;
  linalg::Matrix gram;           // PSD up to solver tolerance
  std::string label;
  /// The polynomial basis' * G * basis.
  poly::Polynomial polynomial(std::size_t nvars) const;
};

struct SolveResult {
  sdp::SolveStatus status = sdp::SolveStatus::NumericalProblem;
  /// True when the iterate satisfies all constraints to working tolerance;
  /// the independent CertificateChecker gives the final soundness verdict.
  bool feasible = false;
  linalg::Vector decision_values;          // indexed by decision var id
  std::vector<GramCertificate> grams;      // one per Gram block, program order
  double objective = 0.0;                  // value of the user objective
  sdp::Solution sdp;                       // raw solver output
                                           // (sdp.backend / sdp.solve_seconds
                                           // carry the per-solve telemetry)
  /// Solver iterate + structure fingerprint for warm-starting the next
  /// structurally identical solve. Populated for every outcome that carries
  /// state — including Interrupted and stalled MaxIterations iterates, so
  /// retry loops never re-derive what the aborted solve already knew. The
  /// blob lives in the base (pre-lowering, unequilibrated) space: the next
  /// solve re-lowers it through sdp::remap_warm_start, so it survives
  /// lowering-parameter changes (min_block_size, the sparsity mode).
  sdp::WarmStart warm;

  double value(const poly::LinExpr& e) const { return e.eval(decision_values); }
  poly::Polynomial value(const poly::PolyLin& p) const {
    return p.eval_decision(decision_values);
  }
};

/// Shared acceptance policy for pipeline verification steps: certified
/// infeasibility or a residual blowup rejects the iterate outright; anything
/// else (objective-stalled MaxIterations, budget-interrupted) goes to the
/// independent certificate audit, which gives the soundness verdict.
bool solve_hard_failed(const SolveResult& result);

/// Aggregated solver telemetry across the SDP solves behind one verification
/// step; surfaced in PipelineReport timing rows so regenerated Table-2
/// numbers record which backend produced them.
struct SolveStats {
  std::string backend;       // "ipm", "admm", or "mixed"
  int solves = 0;
  int iterations = 0;        // summed over solves
  double seconds = 0.0;      // summed wall clock inside backends
  std::size_t max_cone = 0;  // largest PSD cone any backend worked on
  /// Per-phase breakdown (schur / factor / eig / recover inside the
  /// backends, plus the lowering pipeline's convert / complete) summed over
  /// solves; shows *where* the iterations spend their time. The backend
  /// phases total slightly below `seconds` (residuals/bookkeeping are
  /// untimed); convert/complete fall outside `seconds` entirely.
  sdp::PhaseTimes phase;
  /// Resilience telemetry: recovery steps (retries, backend fallbacks) the
  /// solves behind this step needed. Zero on a healthy run; nonzero flags
  /// that a verdict survived a solver failure.
  int recoveries = 0;

  void absorb(const SolveResult& result);
  void merge(const SolveStats& other);
  /// e.g. "backend=ipm solves=3 iters=112 (1.24s)"; empty when no solves.
  std::string str() const;
};

}  // namespace soslock::sos
