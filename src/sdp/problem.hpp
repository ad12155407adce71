#pragma once
// Semidefinite programming problem in primal standard form with several PSD
// blocks and unrestricted (free) scalar variables:
//
//   minimize    sum_j <C_j, X_j>  +  f' w
//   subject to  sum_j <A_ij, X_j> + B_i' w  =  b_i    (i = 1..m)
//               X_j >= 0 (PSD),  w free.
//
// This is exactly the shape produced by Gram-matrix SOS relaxations: the X_j
// are Gram matrices, the w are free polynomial coefficients, and each row is
// one monomial-coefficient matching equation (a chordal lowering, see
// sdp/chordal, appends its clique-overlap ties as more zero-rhs rows). Every
// coefficient matrix, the objectives C_j as much as the row coefficients
// A_ij, is a SparseSym of upper triplets (as in SDPA's input format): the
// relaxations' C_j hold a trace regularisation and a few Gram-entry
// coefficients at most.
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace soslock::sdp {

/// One entry of a sparse symmetric coefficient matrix (r <= c; the (c, r)
/// mirror entry is implicit).
struct Triplet {
  std::size_t r = 0, c = 0;
  double v = 0.0;
};

/// Sparse symmetric matrix stored as upper triplets.
struct SparseSym {
  std::vector<Triplet> entries;

  /// v on each of the n diagonal entries (v * I_n); empty when v is 0.
  static SparseSym diagonal(std::size_t n, double v);

  void add(std::size_t r, std::size_t c, double v);
  bool empty() const { return entries.empty(); }
  /// <this, S> with S dense symmetric.
  double dot(const linalg::Matrix& s) const;
  /// out += scale * this (dense symmetric accumulate).
  void add_to(linalg::Matrix& out, double scale = 1.0) const;
  /// out = this * X (dense), using symmetry of this.
  void times_dense(const linalg::Matrix& x, linalg::Matrix& out) const;
  /// <this, S> with S sparse symmetric (matching positions only).
  double dot(const SparseSym& s) const;
  double frobenius_norm() const;
  /// max_ij |entry|, as linalg::norm_inf of the dense form.
  double max_abs() const;
  void scale(double s);
};

/// One linear equality row.
struct Row {
  /// block index -> sparse symmetric coefficient A_ij
  std::map<std::size_t, SparseSym> blocks;
  /// free variable index -> coefficient
  std::map<std::size_t, double> free_coeffs;
  double rhs = 0.0;
  std::string label;  // provenance (monomial / constraint name) for debugging
};

class Problem {
 public:
  /// Append a PSD block of size n; returns its index.
  std::size_t add_block(std::size_t n);
  /// Append a free scalar variable with objective coefficient; returns index.
  std::size_t add_free(double obj_coeff = 0.0);
  /// Set the objective coefficient C_j of a block (default zero), in the
  /// upper-triplet form of the row coefficients. Triplet positions are not
  /// checked here; sdp::verify checks them as it checks every row's.
  void set_block_objective(std::size_t block, SparseSym c);
  void set_free_objective(std::size_t var, double coeff);
  /// Append an equality row; returns its index.
  std::size_t add_row(Row row);

  std::size_t num_blocks() const { return block_sizes_.size(); }
  std::size_t block_size(std::size_t j) const { return block_sizes_[j]; }
  const std::vector<std::size_t>& block_sizes() const { return block_sizes_; }
  std::size_t num_free() const { return f_.size(); }
  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }
  const SparseSym& block_objective(std::size_t j) const { return c_[j]; }
  const linalg::Vector& free_objective() const { return f_; }
  double rhs(std::size_t i) const { return rows_[i].rhs; }

  /// Total PSD dimension sum_j n_j.
  std::size_t total_psd_dim() const;

  std::string stats() const;

 private:
  std::vector<std::size_t> block_sizes_;
  std::vector<SparseSym> c_;
  linalg::Vector f_;
  std::vector<Row> rows_;
};

enum class SolveStatus {
  Optimal,            // all tolerances met
  MaxIterations,      // returned best iterate
  PrimalInfeasible,   // heuristic certificate of primal infeasibility
  DualInfeasible,     // heuristic certificate of dual infeasibility / unbounded primal
  NumericalProblem,   // linear algebra failed to make progress
  Interrupted,        // stopped by cancellation or wall-clock budget
  Diverged,           // watchdog: NaN/Inf or iterate blowup mid-iteration
  Faulted,            // backend died outright (exception / injected fault)
};

std::string to_string(SolveStatus status);

/// One step the resilience layer (sdp/resilience) took to keep a solve
/// alive: a same-backend retry with perturbed options, or a fallback to the
/// IPM. Recorded on Solution::recoveries in the order taken — the audit
/// trail behind "this certificate survived a diverged solve".
struct RecoveryRecord {
  std::string action;  // "retry" | "fallback"
  std::string from;    // failing backend/driver
  std::string to;      // backend/driver the recovery ran on
  std::string reason;  // typed cause, e.g. "Diverged(phase=primal-residual)"
  int attempt = 0;     // 1-based recovery step within this solve
};

/// Wall-clock seconds a backend spent in each hot-path phase, summed over
/// iterations. The taxonomy is shared by both backends so benches can
/// compare like with like:
///   schur   — IPM: Schur-complement assembly; ADMM: the cached y-update
///             normal solves.
///   factor  — Cholesky factorizations (blocks + Schur/normal matrix) and
///             explicit block inverses.
///   eig     — IPM: step lengths (Cholesky screens, plus the smallest
///             eigenvalue of each block that fails one); ADMM: PSD
///             projections, where this phase dominates.
///   recover — RHS assembly, search-direction / iterate recovery, residuals.
/// Two phases live *outside* the backends, stamped by the lowering pipeline
/// (sdp/lowering) so decomposed-vs-dense comparisons account for the full
/// round trip:
///   convert  — SOS→SDP lowering passes (csp analysis, clique decomposition,
///              block lowering, equilibration).
///   complete — mapping a lowered solution back to the original shape
///              (clique-tree PSD completion, dual scatter-add, blob remaps).
struct PhaseTimes {
  double schur = 0.0;
  double factor = 0.0;
  /// IPM: step lengths; ADMM: PSD projections.
  double eig = 0.0;
  double recover = 0.0;
  double convert = 0.0;
  double complete = 0.0;

  double total() const { return schur + factor + eig + recover + convert + complete; }
  void merge(const PhaseTimes& other) {
    schur += other.schur;
    factor += other.factor;
    eig += other.eig;
    recover += other.recover;
    convert += other.convert;
    complete += other.complete;
  }
};

struct Solution {
  SolveStatus status = SolveStatus::NumericalProblem;
  std::vector<linalg::Matrix> x;  // PSD blocks
  std::vector<linalg::Matrix> z;  // dual slacks
  linalg::Vector y;               // equality multipliers
  linalg::Vector w;               // free variables
  double primal_objective = 0.0;
  double dual_objective = 0.0;
  double mu = 0.0;                // final complementarity
  double primal_residual = 0.0;   // relative
  double dual_residual = 0.0;     // relative
  double gap = 0.0;               // relative duality gap
  /// Iterations the backend ran (IPM Newton steps, ADMM splitting
  /// iterations) on every exit, counting those after the iterate it returns.
  int iterations = 0;
  std::string backend;            // name of the backend that produced this
  double solve_seconds = 0.0;     // wall-clock time inside the backend
  PhaseTimes phase;               // per-phase breakdown of solve_seconds
  /// Largest PSD cone the backend actually worked on. Set by
  /// SosProgram::solve from the compiled problem — the cone-size telemetry
  /// behind the dense-vs-clique benches; 0 when the producer did not record
  /// it.
  std::size_t max_cone = 0;
  /// Phase the watchdogs blamed for a Diverged/Faulted/NumericalProblem
  /// outcome ("factor", "primal-residual", "iterate", ...); empty when no
  /// failure was classified.
  std::string faulted_phase;
  /// Recovery steps the resilience layer took to produce this solution,
  /// in order. Empty for a clean first-attempt solve.
  std::vector<RecoveryRecord> recoveries;
  /// The solve ran its course and returned a best iterate. An Interrupted
  /// solve may have stopped before the first step, so it makes no such
  /// claim — check the residuals before accepting its iterate.
  bool feasible() const {
    return status == SolveStatus::Optimal || status == SolveStatus::MaxIterations;
  }
};

}  // namespace soslock::sdp
