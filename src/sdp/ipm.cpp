#include "sdp/ipm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/kernels.hpp"
#include "sdp/elimination.hpp"
#include "sdp/structure.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace soslock::sdp {
namespace {

using linalg::Cholesky;
using linalg::Matrix;
using linalg::Vector;

constexpr double kStepFraction = 0.98;            // of the distance to the boundary
constexpr double kFreeVarRegularization = 1e-10;  // delta on the free-var Schur block
constexpr double kInfeasibilityThreshold = 1e8;   // ||y|| blowup => infeasibility cert

/// Per-iteration state of the IPM. With native decomposed cones, y is
/// extended: entries [0, m) are the equality-row multipliers and entries
/// [m, m+q) are the overlap-coupling multipliers (ALM-style: they accumulate
/// Newton corrections every iteration and are the dual price of clique-copy
/// consistency). Only the first m entries leave the solver.
struct State {
  std::vector<Matrix> x, z;  // PSD primal blocks and dual slacks
  Vector y;                  // equality + overlap multipliers (m + q)
  Vector w;                  // free variables
};

/// c = a * b for square a and b of one size, into c's storage: operator*'s
/// zero fill and gemm_acc, so the same bits. Copy-assigning a gives c its
/// shape, keeping c's storage when that is large enough.
void multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.rows() == a.cols() && b.rows() == a.rows() && b.cols() == a.cols());
  if (c.rows() != a.rows() || c.cols() != a.cols()) c = a;
  c.fill(0.0);
  linalg::active_kernels().gemm_acc(a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                                    b.data(), b.cols(), c.data(), c.cols());
}

/// t = a^T into t's storage (reshaped only when its shape differs).
void transpose_into(const Matrix& a, Matrix& t) {
  if (t.rows() != a.cols() || t.cols() != a.rows()) t = Matrix(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
}

/// Largest alpha in (0, cap] with X + alpha*dX PSD, given chol(X): the
/// exact bound from the smallest eigenvalue of T = L^{-1} dX L^{-T}. With
/// F = L^{-1} dX, T^T = L^{-1} F^T — two multi-RHS forward solves; T is
/// symmetric, so symmetrizing T^T gives T.
double max_step(const Cholesky& chol_x, const Matrix& dx, double cap,
                StepLengthWork& work) {
  if (dx.rows() == 0) return cap;
  double lambda_min;
  if (dx.rows() == 1) {
    // 1x1 block: the congruence is the scalar dx / L00^2, its own eigenvalue.
    lambda_min = dx(0, 0) / chol_x.lower()(0, 0) / chol_x.lower()(0, 0);
  } else {
    work.lower = dx;
    chol_x.solve_lower_in_place(work.lower, work.acc);
    Matrix& t = work.congruence;
    t = work.lower;  // square: transpose in place
    for (std::size_t r = 0; r < t.rows(); ++r)
      for (std::size_t c = r + 1; c < t.cols(); ++c) std::swap(t(r, c), t(c, r));
    chol_x.solve_lower_in_place(t, work.acc);
    t.symmetrize();
    lambda_min = linalg::min_eigenvalue(t, work.eig);
  }
  if (lambda_min >= -1e-13) return cap;
  return std::min(cap, -1.0 / lambda_min);
}

/// One dense diagonal block of the Schur complement: a connected component
/// of the row-coupling graph, where two rows are adjacent when they touch a
/// common PSD block (overlap couplings included). Rows of different
/// components meet only through the free-variable border B, so M is
/// block-diagonal and every factor and solve runs per block. The block's
/// rows sit at [offset, offset + size) of the permuted work order, ascending
/// by extended index, so its real rows [0, nreal) precede its overlap rows.
struct SchurBlock {
  std::size_t offset = 0, size = 0, nreal = 0;
  Matrix schur;              // extended block (size x size), reassembled per iteration
  OverlapElimination elim;   // its overlap corner (size > nreal only)
  Matrix reduced;            // real-row block after the elimination (size > nreal only)
  Cholesky chol;             // factor of the real-row block (nreal x nreal)
  Matrix corner;             // the elimination's copy of Q (size > nreal only)
  Matrix bfree;              // its rows of B (nreal x nf); empty when they are all zero
  Matrix vfree;              // L^{-1} bfree, per iteration
  Matrix vfree_t;            // its transpose (nf x nreal)

  std::size_t overlaps() const { return size - nreal; }
  const Matrix& factored() const { return overlaps() > 0 ? reduced : schur; }
};

struct Residuals {
  Vector rp;                 // primal: b - A(X) - B w
  std::vector<Matrix> rd;    // dual: C - Z - sum_i y_i A_i
  Vector rf;                 // free: f - B^T y
  double rp_rel = 0.0, rd_rel = 0.0, rf_rel = 0.0;
};

class Ipm {
 public:
  Ipm(const Problem& p, const IpmOptions& opt, SolveContext& ctx,
      std::shared_ptr<const ProblemStructure> structure)
      : p_(p), opt_(opt), ctx_(ctx), structure_(std::move(structure)) {
    m_ = p_.num_rows();
    nf_ = p_.num_free();
    nblocks_ = p_.num_blocks();
    total_dim_ = p_.total_psd_dim();
    // Row -> block incidence comes from the (possibly cached) structure; the
    // flat per-row coefficient views are rebuilt per solve (they point into
    // this problem instance) but reuse the cached pattern, so the hot loops
    // below never consult the per-row std::map.
    views_ = build_block_row_views(p_, *structure_);
    // Native decomposed cones: their overlap couplings enter the iteration
    // as *virtual rows* with indices [m, m+q) — they share all the residual
    // and Schur-panel machinery of real rows — but they are never part of
    // the factored Schur complement: step() block-eliminates their corner
    // of each Schur block, so the factors hold real rows only and the
    // overlap multipliers update ALM-style alongside the Newton step.
    overlap_rows_ = append_overlap_views(p_, views_);
    q_ = overlap_rows_.size();
    mext_ = m_ + q_;
    partition_schur();
    // Schur assembly order: per block, views sorted densest-first
    // (SDPA-style). Row i at sorted position p pairs with every k at
    // position q >= p, and the O(nnz_k) inner product always reads the
    // *later* (sparser) row's triplets, so the dense rows' triplet loops run
    // as rarely as possible. Stable tie-break keeps the order deterministic.
    schur_order_.resize(nblocks_);
    for (std::size_t j = 0; j < nblocks_; ++j) {
      auto& order = schur_order_[j];
      order.resize(views_[j].size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      const auto& touching = views_[j];
      std::stable_sort(order.begin(), order.end(),
                       [&touching](std::size_t a, std::size_t b) {
                         return touching[a].coeff->entries.size() >
                                touching[b].coeff->entries.size();
                       });
    }
    data_norm_ = 1.0;
    for (std::size_t i = 0; i < m_; ++i) data_norm_ = std::max(data_norm_, std::fabs(p_.rhs(i)));
    c_norm_ = 1.0;
    for (std::size_t j = 0; j < nblocks_; ++j)
      c_norm_ = std::max(c_norm_, p_.block_objective(j).max_abs());
    for (double fi : p_.free_objective()) c_norm_ = std::max(c_norm_, std::fabs(fi));
    // Free-variable coupling B is iteration-invariant: each Schur block
    // keeps its own rows of it, built once here. Blocks whose rows carry no
    // free coefficient keep none and skip every free-variable product.
    for (std::size_t i = 0; i < m_; ++i) {
      if (p_.rows()[i].free_coeffs.empty()) continue;
      SchurBlock& c = comps_[comp_of_[i]];
      if (c.bfree.empty()) c.bfree = Matrix(c.nreal, nf_);
      for (const auto& [v, coef] : p_.rows()[i].free_coeffs) c.bfree(local_[i], v) = coef;
    }
    // Per-solve storage of step(). The per-block matrices, factors, Schur
    // blocks and KKT vectors take their shapes in the first iteration. The
    // single-block scratch starts at the largest block's shape, which Matrix
    // copy-assignment then keeps for every smaller block.
    chol_x_.resize(nblocks_);
    chol_z_.resize(nblocks_);
    for (std::vector<Matrix>* set : {&res_.rd, &zinv_, &corr_, &dx_, &dz_})
      set->resize(nblocks_);
    std::size_t nmax = 0;
    for (std::size_t j = 0; j < nblocks_; ++j) nmax = std::max(nmax, p_.block_size(j));
    for (Matrix* scratch : {&panel_, &prod_, &ej_, &xa_, &za_})
      *scratch = Matrix(nmax, nmax);
    step_work_ = StepLengthWork(nmax);
    s_free_ = Matrix(nf_, nf_);
  }

  Solution run() {
    Solution sol = run_inner();
    sol.phase = phase_;
    // The Schur factors never contain overlap couplings: their real rows sum
    // to m over the blocks, with or without decomposed cones. (Overlap
    // couplings lowered as equality rows would pay for them here — the
    // geometry this telemetry compares.)
    sol.schur_rows = m_;
    return sol;
  }

 private:
  Solution run_inner() {
    State s = initial_state();
    Solution best;
    double best_merit = std::numeric_limits<double>::infinity();
    int stagnant_iterations = 0;
    SolveStatus status = SolveStatus::MaxIterations;

    int iter = 0;
    for (; iter < opt_.max_iterations; ++iter) {
      // Injected iterate poisoning: the NaN-leak failure mode the watchdog
      // below must catch.
      SOSLOCK_FAULT_HOOK(util::fault_site::kIterateNan, {
        if (!s.y.empty()) {
          s.y[0] = std::numeric_limits<double>::quiet_NaN();
        } else if (!s.x.empty() && s.x[0].rows() > 0) {
          s.x[0](0, 0) = std::numeric_limits<double>::quiet_NaN();
        }
      });
      residuals(s, res_);
      const Residuals& res = res_;
      const double mu = complementarity(s);
      const double gap = relative_gap(s);

      // Watchdog: bail on the first non-finite quantity with the offending
      // phase named, instead of iterating on poisoned state until the
      // budget burns out (the max-reductions in the residual norms silently
      // drop NaNs, so the merit test alone never fires). The overflow guard
      // catches a genuinely divergent iterate before it turns into Inf-Inf.
      if (const char* phase = divergence_phase(s, res, mu, gap)) {
        if (best.x.empty()) fill_solution(s, res, gap, mu, best);
        status = SolveStatus::Diverged;
        best.faulted_phase = phase;
        util::log_info("ipm: diverged at iteration ", iter, " (", phase, ")");
        break;
      }

      IterationInfo info;
      info.iteration = iter;
      info.mu = mu;
      info.primal_residual = res.rp_rel;
      info.dual_residual = std::max(res.rd_rel, res.rf_rel);
      info.gap = gap;
      ctx_.notify(info);

      util::log_trace("ipm ", iter, " mu=", mu, " rp=", res.rp_rel, " rd=", res.rd_rel,
                      " rf=", res.rf_rel, " gap=", gap);

      const double merit = res.rp_rel + res.rd_rel + res.rf_rel + gap;
      if (merit < 0.99 * best_merit) {
        stagnant_iterations = 0;
      } else if (++stagnant_iterations > 25) {
        // No meaningful progress for a long stretch: return the best iterate
        // instead of burning the remaining iteration budget.
        break;
      }
      if (merit < best_merit) {
        best_merit = merit;
        fill_solution(s, res, gap, mu, best);
      }

      if (res.rp_rel < opt_.tolerance && res.rd_rel < opt_.tolerance &&
          res.rf_rel < opt_.tolerance && gap < opt_.tolerance) {
        fill_solution(s, res, gap, mu, best);
        status = SolveStatus::Optimal;
        break;
      }

      // After the convergence test and best-iterate update, so an interrupt
      // landing on a converged iteration still reports Optimal.
      if (ctx_.interrupted()) {
        status = SolveStatus::Interrupted;
        break;
      }

      if (detect_primal_infeasible(s, res)) {
        status = SolveStatus::PrimalInfeasible;
        break;
      }
      if (detect_dual_infeasible(s, res)) {
        status = SolveStatus::DualInfeasible;
        break;
      }

      if (const char* phase = step(s, res, mu)) {
        status = SolveStatus::NumericalProblem;
        best.faulted_phase = phase;
        break;
      }
    }
    // Every exit counts the Newton steps the solve ran — the iteration it
    // stopped at — also when the iterate it returns is an earlier one.
    best.status = status;
    best.iterations = iter;
    return best;
  }

  /// Name of the first non-finite (or overflowing) quantity of this
  /// iteration, or nullptr when everything is sane. The iterate scan sums
  /// every entry — NaN and Inf both propagate through addition (and
  /// Inf + -Inf is NaN), so one accumulator per matrix set suffices; it is
  /// O(n^2) per block against the O(n^3) factorization work per iteration.
  const char* divergence_phase(const State& s, const Residuals& res, double mu,
                               double gap) const {
    if (!std::isfinite(res.rp_rel)) return "primal-residual";
    if (!std::isfinite(res.rd_rel)) return "dual-residual";
    if (!std::isfinite(res.rf_rel)) return "free-residual";
    if (!std::isfinite(mu)) return "complementarity";
    if (!std::isfinite(gap)) return "gap";
    double acc = 0.0;
    for (const std::vector<Matrix>* set : {&s.x, &s.z}) {
      for (const Matrix& m : *set) {
        for (std::size_t r = 0; r < m.rows(); ++r) {
          for (std::size_t c = 0; c < m.cols(); ++c) acc += m(r, c);
        }
      }
    }
    for (const double v : s.y) acc += v;
    for (const double v : s.w) acc += v;
    if (!std::isfinite(acc)) return "iterate";
    if (std::fabs(acc) > 1e150) return "iterate-overflow";
    return nullptr;
  }

  State initial_state() {
    if (const WarmStart* ws = ctx_.warm_start; ws != nullptr && ws->fits(p_)) {
      return restored_state(*ws);
    }
    State s;
    // SDPT3-style magnitude heuristics keep the first iterations sane.
    double xi = 10.0, eta = 10.0;
    for (std::size_t i = 0; i < m_; ++i) {
      double arow = 1.0;
      for (const auto& [j, a] : p_.rows()[i].blocks) arow = std::max(arow, a.frobenius_norm());
      xi = std::max(xi, (1.0 + std::fabs(p_.rhs(i))) / arow);
    }
    eta = std::max(eta, 1.0 + c_norm_);
    s.x.reserve(nblocks_);
    s.z.reserve(nblocks_);
    for (std::size_t j = 0; j < nblocks_; ++j) {
      const std::size_t n = p_.block_size(j);
      Matrix xj = Matrix::identity(n);
      xj.scale(xi);
      Matrix zj = Matrix::identity(n);
      zj.scale(eta);
      s.x.push_back(std::move(xj));
      s.z.push_back(std::move(zj));
    }
    s.y.assign(mext_, 0.0);
    s.w.assign(nf_, 0.0);
    return s;
  }

  /// Shifted-feasible restore of a warm start: an interior-point iterate must
  /// be strictly inside the cone, but a converged previous solution sits on
  /// its boundary (and the problem data may have moved, so "previous optimal"
  /// is merely near-optimal here). Pushing X and Z back into the interior by
  /// a small spectral shift re-centers the iterate just enough for the
  /// Cholesky-based steps while keeping the Newton direction short.
  State restored_state(const WarmStart& ws) {
    State s;
    s.x = ws.x;
    s.z = ws.z;
    s.y = ws.y;  // sizes guaranteed by WarmStart::fits at the call site
    // Overlap multipliers are backend-internal state (their count depends on
    // this lowering's clique layout, which the blob deliberately does not
    // encode): restart them at zero.
    s.y.resize(mext_, 0.0);
    s.w = ws.w;
    for (std::size_t j = 0; j < nblocks_; ++j) {
      const std::size_t n = p_.block_size(j);
      if (n == 0) continue;
      for (Matrix* mat : {&s.x[j], &s.z[j]}) {
        mat->symmetrize();
        const double scale = std::max(1.0, linalg::norm_inf(*mat));
        const double lambda_min = linalg::min_eigenvalue(*mat, step_work_.eig);
        const double margin = std::max(opt_.warm_start_margin, 1e-10) * scale;
        if (lambda_min < margin) {
          const double shift = margin - lambda_min;
          for (std::size_t d = 0; d < n; ++d) (*mat)(d, d) += shift;
        }
      }
    }
    return s;
  }

  double complementarity(const State& s) const {
    if (total_dim_ == 0) return 0.0;
    double acc = 0.0;
    for (std::size_t j = 0; j < nblocks_; ++j) acc += linalg::dot(s.x[j], s.z[j]);
    return acc / static_cast<double>(total_dim_);
  }

  double primal_objective(const State& s) const {
    double obj = linalg::dot(p_.free_objective(), s.w);
    for (std::size_t j = 0; j < nblocks_; ++j) obj += p_.block_objective(j).dot(s.x[j]);
    return obj;
  }

  double dual_objective(const State& s) const {
    double obj = 0.0;
    for (std::size_t i = 0; i < m_; ++i) obj += p_.rhs(i) * s.y[i];
    return obj;
  }

  double relative_gap(const State& s) const {
    const double pobj = primal_objective(s);
    const double dobj = dual_objective(s);
    return std::fabs(pobj - dobj) / (1.0 + std::fabs(pobj) + std::fabs(dobj));
  }

  /// Split the extended rows [0, m+q) into the Schur blocks: union-find over
  /// views_, O(sum of rows per PSD block). Roots are always the smallest
  /// index of their set, so blocks come out ordered by their first row, and
  /// a connected problem is one block in the identity order (exactly the
  /// dense system). Rows that touch no PSD block — free-only rows — are 1x1
  /// blocks of zero diagonal; the global shift scale in step() gives them
  /// the pivot the dense factor did.
  void partition_schur() {
    std::vector<std::size_t> parent(mext_);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    auto find = [&parent](std::size_t r) {
      while (parent[r] != r) r = parent[r] = parent[parent[r]];
      return r;
    };
    for (const auto& touching : views_) {
      for (std::size_t a = 1; a < touching.size(); ++a) {
        const std::size_t r0 = find(touching[0].row), r1 = find(touching[a].row);
        if (r0 != r1) parent[std::max(r0, r1)] = std::min(r0, r1);
      }
    }
    comp_of_.assign(mext_, 0);
    for (std::size_t r = 0; r < mext_; ++r) {
      const std::size_t root = find(r);
      if (root == r) {
        comp_of_[r] = comps_.size();
        comps_.emplace_back();
      } else {
        comp_of_[r] = comp_of_[root];
      }
      SchurBlock& c = comps_[comp_of_[r]];
      ++c.size;
      if (r < m_) ++c.nreal;
    }
    std::size_t offset = 0, largest = 0;
    for (SchurBlock& c : comps_) {
      c.offset = offset;
      offset += c.size;
      largest = std::max(largest, c.size);
    }
    perm_.resize(mext_);
    local_.resize(mext_);
    std::vector<std::size_t> fill(comps_.size(), 0);
    for (std::size_t r = 0; r < mext_; ++r) {
      const std::size_t k = comp_of_[r];
      local_[r] = fill[k]++;
      perm_[comps_[k].offset + local_[r]] = r;
    }
    work_.assign(mext_, 0.0);
    util::log_debug("ipm: Schur complement of ", mext_, " rows in ", comps_.size(),
                    " blocks, largest ", largest);
  }

  /// Row access across the extended index space (real rows, then overlaps).
  const Row& row_at(std::size_t i) const {
    return i < m_ ? p_.rows()[i] : *overlap_rows_[i - m_];
  }
  double rhs_at(std::size_t i) const { return i < m_ ? p_.rhs(i) : 0.0; }

  /// This iteration's residuals into `r` (res_, reusing its storage).
  void residuals(const State& s, Residuals& r) const {
    // Overlap couplings are primal feasibility too: rp's tail [m, m+q) is
    // the clique-copy consistency gap, so rp_rel only reaches tolerance
    // when the decomposed cone agrees on its separators.
    r.rp.assign(mext_, 0.0);
    for (std::size_t i = 0; i < mext_; ++i) {
      const Row& row = row_at(i);
      double ax = 0.0;
      for (const auto& [j, a] : row.blocks) ax += a.dot(s.x[j]);
      for (const auto& [v, c] : row.free_coeffs) ax += c * s.w[v];
      r.rp[i] = rhs_at(i) - ax;
    }
    double rd_norm = 0.0;
    for (std::size_t j = 0; j < nblocks_; ++j) {
      Matrix& rd = r.rd[j];
      const std::size_t n = s.z[j].rows();
      if (rd.rows() != n) rd = Matrix(n, n);  // shaped in the first iteration
      rd.fill(0.0);
      p_.block_objective(j).add_to(rd);
      rd -= s.z[j];
      for (const BlockRowView& v : views_[j]) v.coeff->add_to(rd, -s.y[v.row]);
      rd_norm = std::max(rd_norm, linalg::norm_inf(rd));
    }
    r.rf = p_.free_objective();
    for (std::size_t i = 0; i < m_; ++i) {
      const double yi = s.y[i];
      if (yi == 0.0) continue;
      for (const auto& [v, c] : p_.rows()[i].free_coeffs) r.rf[v] -= c * yi;
    }
    r.rp_rel = linalg::norm_inf(r.rp) / (1.0 + data_norm_);
    r.rd_rel = rd_norm / (1.0 + c_norm_);
    r.rf_rel = linalg::norm_inf(r.rf) / (1.0 + c_norm_);
  }

  bool detect_primal_infeasible(const State& s, const Residuals& res) const {
    // Heuristic Farkas-type test: the dual iterate grows without bound while
    // staying (nearly) dual feasible and improving b'y proportionally. The
    // proportionality guard avoids misfiring on ill-conditioned feasible
    // problems whose multipliers are merely large.
    const double ynorm = linalg::norm_inf(s.y);
    if (ynorm < kInfeasibilityThreshold) return false;
    return res.rd_rel < 1e-6 && res.rf_rel < 1e-6 &&
           dual_objective(s) > 1e-8 * ynorm && dual_objective(s) > 1.0;
  }

  bool detect_dual_infeasible(const State& s, const Residuals& res) const {
    // Primal iterate grows unbounded with decreasing objective and near
    // feasibility -> dual infeasible (primal unbounded).
    double xnorm = 0.0;
    for (const Matrix& xj : s.x) xnorm = std::max(xnorm, linalg::norm_inf(xj));
    xnorm = std::max(xnorm, linalg::norm_inf(s.w));
    if (xnorm < kInfeasibilityThreshold) return false;
    return res.rp_rel < 1e-5 && primal_objective(s) < -1.0;
  }

  /// Schur assembly: fill only the upper triangle — each unordered row
  /// pair is computed once (the exact-arithmetic symmetry M_ik = M_ki of the
  /// symmetrized HKM operator makes the mirror free) — over views sorted
  /// densest-first, with the Z_j^{-1} A_i X_j panel built once per row as a
  /// sum of nnz(A_i) rank-1 outer products (O(nnz n^2), not O(n^3) column
  /// solves). All rows of a PSD block lie in one Schur block, so each pair
  /// lands there at its local indices.
  void assemble_schur(const State& s) {
    for (std::size_t j = 0; j < nblocks_; ++j) {
      const auto& touching = views_[j];
      if (touching.empty()) continue;
      Matrix& schur = comps_[comp_of_[touching[0].row]].schur;
      const std::size_t n = p_.block_size(j);
      const Matrix& zi = zinv_[j];
      const Matrix& xj = s.x[j];
      const auto& order = schur_order_[j];
      Matrix& panel = panel_;
      if (panel.rows() != n) panel = xj;  // shape only: zeroed per row below
      for (std::size_t p = 0; p < order.size(); ++p) {
        panel.fill(0.0);
        const BlockRowView& vi = touching[order[p]];
        // panel = Z^{-1} A_i X = sum over triplets v (zinv_col_r x_row_c +
        // [r != c] zinv_col_c x_row_r); zinv is symmetric, so its columns
        // are its rows and every factor is a contiguous row pointer.
        for (const Triplet& t : vi.coeff->entries) {
          add_scaled_outer(panel, t.v, zi.row_ptr(t.r), xj.row_ptr(t.c), n);
          if (t.r != t.c)
            add_scaled_outer(panel, t.v, zi.row_ptr(t.c), xj.row_ptr(t.r), n);
        }
        for (std::size_t q = p; q < order.size(); ++q) {
          const BlockRowView& vk = touching[order[q]];
          // HKM symmetrization convention (the single place it is spelled
          // out): W = Z^{-1} A_i X is not symmetric, the symmetrized HKM
          // direction uses (W + W^T)/2, so M_ik = <A_k, (W + W^T)/2>. A_k
          // is stored as upper triplets with the (c, r) mirror implicit,
          // and both mirror entries read the *same* symmetrized quantity
          // 0.5 * (W_rc + W_cr) — one fused accumulation weighted 2x for
          // off-diagonal triplets.
          double acc = 0.0;
          for (const Triplet& t : vk.coeff->entries) {
            const double sym = 0.5 * (panel(t.r, t.c) + panel(t.c, t.r));
            acc += (t.r == t.c ? 1.0 : 2.0) * t.v * sym;
          }
          std::size_t r1 = local_[vi.row], r2 = local_[vk.row];
          if (r1 > r2) std::swap(r1, r2);
          schur(r1, r2) += acc;
        }
      }
    }
    // Mirror the computed upper triangles onto the lower.
    for (SchurBlock& blk : comps_) {
      Matrix& schur = blk.schur;
      for (std::size_t r = 0; r < blk.size; ++r) {
        const double* ur = schur.row_ptr(r);
        for (std::size_t c = r + 1; c < blk.size; ++c) schur(c, r) = ur[c];
      }
    }
  }

  static void add_scaled_outer(Matrix& out, double v, const double* u,
                               const double* w, std::size_t n) {
    for (std::size_t a = 0; a < n; ++a) {
      const double f = v * u[a];
      if (f == 0.0) continue;
      double* row = out.row_ptr(a);
      for (std::size_t b = 0; b < n; ++b) row[b] += f * w[b];
    }
  }

  /// One predictor-corrector step. Returns nullptr on success, else the
  /// phase that broke down, which run_inner reports as a NumericalProblem:
  /// "step" when the step lengths collapse, "factor" for the injected
  /// factorization fault (the shifted factorizations themselves never fail).
  const char* step(State& s, const Residuals& res, double mu) {
    SOSLOCK_FAULT_HOOK(util::fault_site::kIpmFactorization, { return "factor"; });
    util::Timer phase_timer;
    // Factor all Z and X blocks and form the explicit Z^{-1} (used by the
    // Schur panels, the RHS assembly and the direction recovery — computing
    // it once per block per iteration replaces three rounds of per-column
    // triangular solves with GEMMs).
    for (std::size_t j = 0; j < nblocks_; ++j) {
      chol_z_[j].refactor_shifted(s.z[j]);
      chol_x_[j].refactor_shifted(s.x[j]);
      chol_z_[j].inverse(zinv_[j]);
    }
    phase_.factor += phase_timer.seconds();

    // Assemble the Schur complement M_ik = sum_j <A_ij, Z_j^{-1} A_kj X_j>
    // over the extended index space (real rows, then overlap couplings),
    // block by block.
    phase_timer.reset();
    for (SchurBlock& c : comps_) {
      if (c.schur.rows() != c.size) {
        c.schur = Matrix(c.size, c.size);
      } else {
        c.schur.fill(0.0);
      }
    }
    assemble_schur(s);
    phase_.schur += phase_timer.seconds();

    // Overlap multipliers are block-eliminated per Schur block, never
    // factored with the rows (OverlapElimination): the flop count telescopes
    // to exactly the extended factorization, and the elimination is
    // algebraically the full solve — native cones take the same Newton step
    // as overlap equality rows would, at the original Schur geometry. Q is
    // PD whenever the iterate is interior (a congruence of the PD HKM
    // operator with the linearly independent overlap difference maps). Every
    // shift ladder starts at 1e-13 of the whole system's largest diagonal —
    // the dense factor's scale — not of its own block's: a free-only row's
    // zero 1x1 block would otherwise get a 1e-13 pivot. Factors refactor
    // into the solve's own storage, like the Schur blocks themselves.
    phase_timer.reset();
    double corner_scale = 0.0, scale = 0.0;
    for (const SchurBlock& c : comps_) {
      for (std::size_t d = c.nreal; d < c.size; ++d)
        corner_scale = std::max(corner_scale, std::fabs(c.schur(d, d)));
    }
    for (SchurBlock& c : comps_) {
      if (c.overlaps() > 0)
        c.elim.reduce(c.schur, c.nreal, c.overlaps(), 1e-13, corner_scale, c.reduced,
                      c.corner, acc_);
      const Matrix& a = c.factored();
      for (std::size_t d = 0; d < c.nreal; ++d)
        scale = std::max(scale, std::fabs(a(d, d)));
    }
    for (SchurBlock& c : comps_) c.chol.refactor_shifted(c.factored(), 1e-13, scale);

    // Free variables (B, m x nf) by block elimination through the half
    // solve V = L^{-1} B, per Schur block with nonzero B rows: S = sum V^T V
    // + reg I is B^T M^{-1} B, exactly symmetric by construction, and no
    // back substitution of B is needed.
    const linalg::Kernels& kern = linalg::active_kernels();
    if (nf_ > 0) {
      s_free_.fill(0.0);
      for (SchurBlock& c : comps_) {
        if (c.bfree.empty()) continue;
        c.vfree = c.bfree;
        c.chol.solve_lower_in_place(c.vfree, acc_);
        transpose_into(c.vfree, c.vfree_t);
        kern.gemm_acc(nf_, nf_, c.nreal, c.vfree_t.data(), c.vfree_t.cols(),
                      c.vfree.data(), nf_, s_free_.data(), nf_);
      }
      for (std::size_t v = 0; v < nf_; ++v) s_free_(v, v) += kFreeVarRegularization;
      chol_s_.refactor_shifted(s_free_, 1e-13);
    }
    phase_.factor += phase_timer.seconds();

    // One pass of the block-eliminated KKT solve, in the permuted work
    // vector so every block's rows are one contiguous span. r1 spans the
    // extended row space [rows; overlaps]; the returned dy does too (its
    // overlap entries are the multiplier correction dλ = Q^{-1}(rb - U^T
    // dy_rows), via the elimination's two-stage solve). With free
    // variables, h = L^{-1} ra, dw = S^{-1}(V^T h - r2) and
    // dy = L^{-T}(h - V dw): one forward and one backward vector solve per
    // block either way.
    auto solve_kkt_once = [&](const Vector& r1, const Vector& r2, Vector& dy, Vector& dw) {
      double* work = work_.data();
      for (std::size_t p = 0; p < mext_; ++p) work[p] = r1[perm_[p]];
      vth_.assign(nf_, 0.0);
      for (const SchurBlock& c : comps_) {
        double* h = work + c.offset;
        if (c.overlaps() > 0) c.elim.fold_rhs(h + c.nreal, h);
        c.chol.solve_lower_in_place(h);
        if (c.bfree.empty()) continue;
        for (std::size_t i = 0; i < c.nreal; ++i)
          if (h[i] != 0.0) kern.axpy(h[i], c.vfree.row_ptr(i), vth_.data(), nf_);
      }
      if (nf_ == 0) {
        dw.clear();
      } else {
        linalg::axpy(-1.0, r2, vth_);
        dw = vth_;
        chol_s_.solve_lower_in_place(dw.data());
        chol_s_.solve_lower_transposed_in_place(dw.data());
      }
      for (const SchurBlock& c : comps_) {
        double* h = work + c.offset;
        if (!c.bfree.empty()) {
          for (std::size_t i = 0; i < c.nreal; ++i)
            h[i] -= kern.dot(c.vfree.row_ptr(i), dw.data(), nf_);
        }
        c.chol.solve_lower_transposed_in_place(h);
        if (c.overlaps() > 0) c.elim.multipliers(h + c.nreal, h);
      }
      dy.resize(mext_);
      for (std::size_t p = 0; p < mext_; ++p) dy[perm_[p]] = work[p];
    };

    // The Schur complement is severely ill-conditioned near the central-path
    // end; two rounds of iterative refinement recover the lost digits. The
    // residual uses the full extended operator (per-block row dots on the
    // permuted dy), so the eliminated overlap corners are refined along with
    // the rows.
    auto solve_kkt = [&](const Vector& r1, const Vector& r2, Vector& dy, Vector& dw) {
      solve_kkt_once(r1, r2, dy, dw);
      for (int refine = 0; refine < 2; ++refine) {
        double* work = work_.data();
        for (std::size_t p = 0; p < mext_; ++p) work[p] = dy[perm_[p]];
        res1_ = r1;
        bty_.assign(nf_, 0.0);  // B^T dy
        for (const SchurBlock& c : comps_) {
          const double* dyc = work + c.offset;
          for (std::size_t a = 0; a < c.size; ++a)
            res1_[perm_[c.offset + a]] -= kern.dot(c.schur.row_ptr(a), dyc, c.size);
          if (c.bfree.empty()) continue;
          for (std::size_t a = 0; a < c.nreal; ++a) {
            res1_[perm_[c.offset + a]] -= kern.dot(c.bfree.row_ptr(a), dw.data(), nf_);
            if (dyc[a] != 0.0) kern.axpy(dyc[a], c.bfree.row_ptr(a), bty_.data(), nf_);
          }
        }
        res2_ = r2;
        linalg::axpy(-1.0, bty_, res2_);
        solve_kkt_once(res1_, res2_, cy_, cw_);
        linalg::axpy(1.0, cy_, dy);
        if (nf_ > 0) linalg::axpy(1.0, cw_, dw);
      }
    };

    // RHS for a complementarity target nu, into r1_:
    // r1_i = rp_i - sum_j <A_ij, E_j>, E_j = nu Z^{-1} - X - Z^{-1} (Rd X +
    // Corr), a GEMM on the precomputed Z^{-1}. Each E_j is subtracted from
    // its rows as soon as it is formed: the blocks go in order, so a row
    // that touches several still takes their terms in block order.
    auto build_r1 = [&](double nu, const std::vector<Matrix>* corr) {
      r1_ = res.rp;
      for (std::size_t j = 0; j < nblocks_; ++j) {
        if (views_[j].empty()) continue;
        multiply_into(res.rd[j], s.x[j], prod_);
        if (corr != nullptr) prod_ += (*corr)[j];
        multiply_into(zinv_[j], prod_, ej_);
        ej_.scale(-1.0);
        ej_ -= s.x[j];
        if (nu != 0.0) ej_.axpy(nu, zinv_[j]);
        ej_.symmetrize();
        for (const BlockRowView& v : views_[j]) r1_[v.row] -= v.coeff->dot(ej_);
      }
    };

    // dZ = Rd - sum_i dy_i A_i and dX = nu Z^{-1} - X - Z^{-1} (dZ X + Corr),
    // symmetrized, into dx_/dz_.
    auto recover_dxdz = [&](double nu, const std::vector<Matrix>* corr) {
      for (std::size_t j = 0; j < nblocks_; ++j) {
        Matrix& dzj = dz_[j];
        dzj = res.rd[j];
        for (const BlockRowView& v : views_[j]) v.coeff->add_to(dzj, -dy_[v.row]);
        multiply_into(dzj, s.x[j], prod_);
        if (corr != nullptr) prod_ += (*corr)[j];
        Matrix& dxj = dx_[j];
        multiply_into(zinv_[j], prod_, dxj);
        dxj.scale(-1.0);
        dxj -= s.x[j];
        if (nu != 0.0) dxj.axpy(nu, zinv_[j]);
        dxj.symmetrize();
      }
    };

    // Max PSD step lengths along dx_/dz_ over all blocks (psd_step_length:
    // a Cholesky screen per block at the running step, an eigenvalue only
    // for the blocks that fail it). Each side's scan starts at the block
    // that bound its previous call.
    auto step_lengths = [&](double cap, double& ap_out, double& ad_out) {
      util::Timer eig_timer;
      ap_out = psd_step_length(s.x, chol_x_, dx_, cap, x_start_, step_work_);
      ad_out = psd_step_length(s.z, chol_z_, dz_, cap, z_start_, step_work_);
      phase_.eig += eig_timer.seconds();
    };

    double sigma = 0.2;

    util::Timer recover_timer;
    if (total_dim_ > 0) {
      // Predictor: pure Newton (nu = 0). Its direction lives in dy_/dw_ and
      // dx_/dz_ until the corrector overwrites them.
      build_r1(0.0, nullptr);
      solve_kkt(r1_, res.rf, dy_, dw_);
      recover_dxdz(0.0, nullptr);
      phase_.recover += recover_timer.seconds();

      double ap = 1.0, ad = 1.0;
      step_lengths(1.0, ap, ad);
      recover_timer.reset();
      double mu_aff = 0.0;
      for (std::size_t j = 0; j < nblocks_; ++j) {
        xa_ = s.x[j];
        xa_.axpy(ap, dx_[j]);
        za_ = s.z[j];
        za_.axpy(ad, dz_[j]);
        mu_aff += linalg::dot(xa_, za_);
      }
      mu_aff /= static_cast<double>(total_dim_);
      const double ratio = mu > 0.0 ? mu_aff / mu : 0.0;
      sigma = std::clamp(ratio * ratio * ratio, 1e-6, 1.0);
      // Safeguard: while the iterate is infeasible, do not let the barrier
      // collapse far below the infeasibility level, or later steps become too
      // inaccurate to ever restore feasibility.
      const double infeas = std::max({res.rp_rel, res.rd_rel, res.rf_rel});
      if (mu < 0.1 * infeas) sigma = std::max(sigma, 0.9);

      // Corrector with second-order term dZ_aff * dX_aff.
      for (std::size_t j = 0; j < nblocks_; ++j) multiply_into(dz_[j], dx_[j], corr_[j]);
      build_r1(sigma * mu, &corr_);
      solve_kkt(r1_, res.rf, dy_, dw_);
      recover_dxdz(sigma * mu, &corr_);
      phase_.recover += recover_timer.seconds();
    } else {
      // No PSD dimension (every cone empty): nothing to predict, so one
      // plain centering step on the rows and free variables.
      build_r1(sigma * mu, nullptr);
      solve_kkt(r1_, res.rf, dy_, dw_);
      recover_dxdz(sigma * mu, nullptr);
      phase_.recover += recover_timer.seconds();
    }

    // Step lengths.
    double ap = 1.0, ad = 1.0;
    step_lengths(1.0 / kStepFraction, ap, ad);
    ap = std::min(kStepFraction * ap, 1.0);
    ad = std::min(kStepFraction * ad, 1.0);
    if (!(ap > 1e-10) || !(ad > 1e-10)) {
      util::log_debug("ipm: step collapsed (ap=", ap, ", ad=", ad, ")");
      return "step";
    }

    for (std::size_t j = 0; j < nblocks_; ++j) {
      s.x[j].axpy(ap, dx_[j]);
      s.z[j].axpy(ad, dz_[j]);
    }
    linalg::axpy(ad, dy_, s.y);
    // w is a *primal* variable: it must advance with the primal step so that
    // the primal residual contracts by (1 - ap) per iteration.
    if (nf_ > 0) linalg::axpy(ap, dw_, s.w);
    return nullptr;
  }

  void fill_solution(const State& s, const Residuals& res, double gap, double mu,
                     Solution& out) const {
    out.x = s.x;
    out.z = s.z;
    // Overlap multipliers are internal state: only the row multipliers
    // leave the solver (the blob/warm-start space has no overlap slots).
    out.y.assign(s.y.begin(), s.y.begin() + static_cast<std::ptrdiff_t>(m_));
    out.w = s.w;
    out.primal_objective = primal_objective(s);
    out.dual_objective = dual_objective(s);
    out.mu = mu;
    out.primal_residual = res.rp_rel;
    out.dual_residual = std::max(res.rd_rel, res.rf_rel);
    out.gap = gap;
  }

  const Problem& p_;
  const IpmOptions& opt_;
  SolveContext& ctx_;
  std::shared_ptr<const ProblemStructure> structure_;
  std::vector<std::vector<BlockRowView>> views_;
  /// Native decomposed cones: overlap couplings as virtual rows [m, m+q).
  /// Pointers into p_.cones() (stable: the problem outlives the solve).
  std::vector<const Row*> overlap_rows_;
  /// Per block: indices into views_[j] sorted densest-first (Schur order).
  std::vector<std::vector<std::size_t>> schur_order_;
  // The Schur complement as its diagonal blocks (partition_schur). Each
  // block's matrix and factor are per-solve storage, first allocated in the
  // first iteration and refactored in place after that; nothing m x m
  // exists unless the problem is connected.
  std::vector<SchurBlock> comps_;
  std::vector<std::size_t> comp_of_;  // extended row -> its Schur block
  std::vector<std::size_t> local_;    // extended row -> index within its block
  std::vector<std::size_t> perm_;     // work position -> extended row
  Vector work_;                       // permuted KKT work vector (m + q)
  // Per-solve storage of step() (see the constructor): per-block factors,
  // Z^{-1}, residuals, corrector terms and directions — the predictor's
  // until the corrector overwrites them — then single-block scratch sized
  // for the largest block, the free-variable system, and the KKT vectors.
  Residuals res_;
  std::vector<Cholesky> chol_x_, chol_z_;
  std::vector<Matrix> zinv_, corr_, dx_, dz_;
  Matrix panel_;                      // Schur panel Z^{-1} A_i X of one row
  Matrix prod_;                       // Rd X + Corr, or dZ X + Corr, of one block
  Matrix ej_;                         // E_j of build_r1
  Matrix xa_, za_;                    // the predictor's trial X and Z of one block
  Matrix s_free_;                     // B^T M^{-1} B + reg I (nf x nf)
  Cholesky chol_s_;                   // its factor
  Vector r1_, dy_, dw_;               // KKT right-hand side and solution
  Vector vth_, res1_, res2_, bty_, cy_, cw_;  // one KKT pass and its refinement
  Vector acc_;                        // multi-RHS forward solves' scratch
  // psd_step_length state: the block that bound each side's previous step,
  // and the scan's storage.
  std::size_t x_start_ = 0, z_start_ = 0;
  StepLengthWork step_work_;
  PhaseTimes phase_;
  std::size_t m_ = 0, q_ = 0, mext_ = 0, nf_ = 0, nblocks_ = 0, total_dim_ = 0;
  double data_norm_ = 1.0, c_norm_ = 1.0;
};

}  // namespace

StepLengthWork::StepLengthWork(std::size_t max_block)
    : screen(max_block, max_block),
      lower(max_block, max_block),
      congruence(max_block, max_block) {
  acc.reserve(Cholesky::solve_scratch_size(max_block, max_block));
  // The values-only min_eigenvalue leaves eig.vectors_t empty.
  eig.reduced = Matrix(max_block, max_block);
  for (Vector* v : {&eig.values, &eig.offdiag, &eig.tau}) v->reserve(max_block);
}

double psd_step_length(const std::vector<Matrix>& x, const std::vector<Cholesky>& chol,
                       const std::vector<Matrix>& dx, double cap, std::size_t& start,
                       StepLengthWork& work) {
  const std::size_t nblocks = x.size(), first = start;
  double alpha = cap;
  for (std::size_t k = 0; k < nblocks; ++k) {
    const std::size_t j = (first + k) % nblocks;
    const std::size_t n = x[j].rows();
    if (n == 0) continue;
    // The screen: for PD X, {alpha >= 0 : X + alpha dX PSD} is an interval
    // from 0, so a block that still factors at the running step cannot
    // lower it. A shifted factor means X itself is not numerically PD, so
    // only the exact bound applies.
    if (n >= 2 && chol[j].shift() == 0.0) {
      work.screen = x[j];
      work.screen.axpy(alpha, dx[j]);
      if (linalg::factor_in_place(work.screen)) continue;
    }
    const double alpha_j = max_step(chol[j], dx[j], alpha, work);
    if (alpha_j < alpha) {
      alpha = alpha_j;
      start = j;
    }
  }
  return alpha;
}

Solution IpmSolver::solve(const Problem& problem, SolveContext& context) const {
  // Row equilibration is the caller's job (SosProgram::solve applies it to
  // every compiled program); doing it here would invalidate the warm-start
  // contract that y lives in the row space of the problem as passed in.
  const util::Timer timer;
  Ipm ipm(problem, options_, context, StructureCache::global().get(problem));
  Solution sol = ipm.run();
  sol.backend = name();
  sol.solve_seconds = timer.seconds();
  util::log_debug("ipm: ", to_string(sol.status), " after ", sol.iterations,
                  " iters, gap=", sol.gap, ", rp=", sol.primal_residual);
  return sol;
}

}  // namespace soslock::sdp
