#include "sdp/admm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "sdp/structure.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace soslock::sdp {

using linalg::Cholesky;
using linalg::Matrix;
using linalg::Vector;

namespace {

/// Over-relaxation factor alpha: ~1.6 damps the tail oscillation of the
/// splitting on well-posed problems.
constexpr double kOverRelaxation = 1.6;
/// Residual-balanced rho updates: checked every kRhoUpdateInterval
/// iterations, triggered when the residual ratio leaves
/// [1/kResidualBalance, kResidualBalance], and clamped to one kRhoScale
/// step per update.
constexpr int kRhoUpdateInterval = 50;
constexpr double kResidualBalance = 10.0;
constexpr double kRhoScale = 2.0;

/// S = U + U^- and X = rho U^- from U^- (`neg`, which may be `s` itself)
/// over nn entries, into the caller's storage; returns max_k |X'_k - X_k|
/// against the X that `x` held on entry.
double recombine(const double* neg, const double* u, std::size_t nn, double rho,
                 double* s, double* x) {
  double change = 0.0;
  for (std::size_t k = 0; k < nn; ++k) {
    const double xk = rho * neg[k];
    change = std::max(change, std::fabs(xk - x[k]));
    s[k] = neg[k] + u[k];
    x[k] = xk;
  }
  return change;
}

/// Closed-form eigensplit of a symmetric n x n U (row-major `u`, n <= 2)
/// into s = U^+ = U + U^- and x = rho U^-, written in place; returns
/// max_k |x'_k - x_k|. For n = 2 with mid = (a+c)/2, half = (a-c)/2 and
/// rad = hypot(half, b), the eigenvalues are mid -+ rad and, when they have
/// opposite signs, U^- = -(mid - rad) P with P = (I - (U - mid I)/rad)/2 the
/// projector on the negative eigenvector. A NaN anywhere in U fails both
/// sign tests and reaches every entry of U^-.
double split_small(const double* u, std::size_t n, double rho, double* s, double* x) {
  double neg[4] = {0.0, 0.0, 0.0, 0.0};  // U^-, row-major n x n
  if (n == 2) {
    const double a = u[0], b = u[1], c = u[3];
    const double mid = 0.5 * (a + c), half = 0.5 * (a - c);
    const double rad = std::hypot(half, b);
    if (mid + rad <= 0.0) {  // both eigenvalues <= 0: U^- = -U
      neg[0] = -a;
      neg[1] = neg[2] = -b;
      neg[3] = -c;
    } else if (!(mid - rad >= 0.0)) {  // one eigenvalue each side (or NaN)
      const double f = -0.5 * (mid - rad);
      neg[0] = f * (1.0 - half / rad);
      neg[1] = neg[2] = -f * (b / rad);
      neg[3] = f * (1.0 + half / rad);
    }
  } else if (n == 1) {
    if (!(u[0] >= 0.0)) neg[0] = -u[0];
  }
  return recombine(neg, u, n * n, rho, s, x);
}

/// One solve of the backend: normal-matrix setup, the y-update solve, the
/// per-block eigensplit projection (fanned out on a fork-join pool), the
/// w-update, the residual/gap evaluation, and the iteration control law
/// (best-iterate tracking, stagnation/degenerate-drift classification,
/// residual-balanced adaptive rho).
class AdmmEngine {
 public:
  AdmmEngine(const Problem& p, const AdmmOptions& opt, std::size_t threads,
             SolveContext& ctx, const ProblemStructure& structure);

  /// Setup (normal factor, initial state), then the iteration loop.
  Solution run();

 private:
  /// Factor the iteration-invariant normal matrix M = A A* + B B'.
  void setup_normal();
  /// Warm or cold initial (x_, s_, y_, w_) plus the invariant rhs0_.
  void init_state();

  /// y-update: M y = (b - A(X) - B w)/rho + A(C - S) + B f through the
  /// cached factor, into y's storage.
  void solve_y(const std::vector<linalg::Matrix>& x, const std::vector<linalg::Matrix>& s,
               const linalg::Vector& w, double rho, linalg::Vector& y) const;
  /// Eigensplit storage of one block of size >= 3: U and the eigensolver's
  /// workspace, allocated by the constructor and reused every iteration.
  struct SplitScratch {
    linalg::Matrix u;
    linalg::EigenWork eig;
  };
  /// (S, X)-update of one block, in place: over-relaxed eigensplit
  /// projection given the current y. Blocks of size <= 2 build U on the
  /// stack, larger ones in `scratch`. Returns the block's scaled dual
  /// residual.
  double project_block(std::size_t j, const linalg::Vector& y, double rho,
                       linalg::Matrix& x_j, linalg::Matrix& s_j,
                       SplitScratch& scratch) const;
  /// w-update (multiplier ascent on B'y = f, over-relaxed step); returns the
  /// free-variable dual residual.
  double update_w(const linalg::Vector& y, linalg::Vector& w, double rho) const;
  /// max_i |b_i - A_i(X) - B_i w| (unscaled).
  double primal_residual_inf(const std::vector<linalg::Matrix>& x,
                             const linalg::Vector& w) const;
  double primal_objective(const std::vector<linalg::Matrix>& x,
                          const linalg::Vector& w) const;
  double dual_objective(const linalg::Vector& y) const;
  void fill(Solution& out, const std::vector<linalg::Matrix>& x,
            const std::vector<linalg::Matrix>& s, const linalg::Vector& y,
            const linalg::Vector& w, double pres, double dres, double gap) const;

  /// Post-residual control law of iteration `iter`: the divergence
  /// watchdog, progress notification, best-iterate/merit tracking,
  /// tolerance, cancellation, stagnation + degenerate-drift classification,
  /// and the residual-balanced adaptive-rho update (mutates rho_). The
  /// caller acts:
  ///   Continue    — next iteration;
  ///   Converged   — fill the result from the current iterate (Optimal);
  ///   Interrupted — return `best` with Interrupted status;
  ///   ReturnBest  — return `best` with MaxIterations status (plateau or
  ///                 degenerate-drift lock);
  ///   Diverged    — NaN/Inf entered the residuals or the iterate
  ///                 (diverged_phase_ names where); return `best` as
  ///                 Diverged.
  enum class ControlAction { Continue, Converged, Interrupted, ReturnBest, Diverged };
  ControlAction control_step(int iter, double pres, double dres, double gap,
                             const std::vector<linalg::Matrix>& x,
                             const std::vector<linalg::Matrix>& s,
                             const linalg::Vector& y, const linalg::Vector& w,
                             Solution& best, double& best_merit, int& stagnant);
  /// Sum-scan finiteness check over a full iterate (NaN/Inf propagate
  /// through addition, and the residual max-reductions silently drop NaNs,
  /// so this is the check that actually catches a poisoned iterate).
  static bool iterate_finite(const std::vector<linalg::Matrix>& x,
                             const std::vector<linalg::Matrix>& s,
                             const linalg::Vector& y, const linalg::Vector& w);

  const Problem& p_;
  const AdmmOptions& opt_;
  SolveContext& ctx_;
  util::ThreadPool pool_;  // projection fan-out (AdmmSolver's threads)
  PhaseTimes phase_;
  std::vector<std::vector<BlockRowView>> views_;
  std::optional<linalg::Cholesky> chol_m_;  // the normal matrix's factor (m x m)
  std::vector<linalg::Matrix> x_, s_;
  std::vector<SplitScratch> split_;  // per-block scratch (blocks of size >= 3)
  linalg::Vector y_, w_, rhs0_;
  std::size_t m_ = 0, nf_ = 0, nblocks_ = 0, total_dim_ = 0;
  double data_norm_ = 1.0, c_norm_ = 1.0;
  double rho_ = 1.0;
  /// Phase the watchdog blamed for a ControlAction::Diverged ("gap",
  /// "primal-residual", "iterate", ...); copied to Solution::faulted_phase.
  std::string diverged_phase_;
};

AdmmEngine::AdmmEngine(const Problem& p, const AdmmOptions& opt, std::size_t threads,
                       SolveContext& ctx, const ProblemStructure& structure)
    : p_(p), opt_(opt), ctx_(ctx), pool_(threads) {
  m_ = p_.num_rows();
  nf_ = p_.num_free();
  nblocks_ = p_.num_blocks();
  total_dim_ = p_.total_psd_dim();
  // Scratch of the blocks that go through the eigensolver, allocated once
  // per solve here (allocated lazily in the first iteration, it raised the
  // clock-tree request's peak RSS): the projections then reuse it every
  // iteration.
  split_.resize(nblocks_);
  for (std::size_t j = 0; j < nblocks_; ++j) {
    const std::size_t n = p_.block_size(j);
    if (n > 2) split_[j] = {Matrix(n, n), linalg::EigenWork(n)};
  }
  views_ = build_block_row_views(p_, structure);
  data_norm_ = 1.0;
  for (std::size_t i = 0; i < m_; ++i) data_norm_ = std::max(data_norm_, std::fabs(p_.rhs(i)));
  c_norm_ = 1.0;
  for (std::size_t j = 0; j < nblocks_; ++j)
    c_norm_ = std::max(c_norm_, p_.block_objective(j).max_abs());
  for (double fi : p_.free_objective()) c_norm_ = std::max(c_norm_, std::fabs(fi));
}

void AdmmEngine::setup_normal() {
  // The y-update normal matrix M = A A* + B B' is iteration-independent:
  // factor it once. M_ik = sum_j <A_ij, A_kj> + sum_v B_iv B_kv.
  const util::Timer setup_timer;
  if (m_ > 0) {
    Matrix normal(m_, m_);
    for (std::size_t j = 0; j < nblocks_; ++j) {
      const auto& touching = views_[j];
      for (std::size_t a = 0; a < touching.size(); ++a) {
        const SparseSym& ai = *touching[a].coeff;
        for (std::size_t bnd = a; bnd < touching.size(); ++bnd) {
          const SparseSym& ak = *touching[bnd].coeff;
          const double v = ai.dot(ak);
          const std::size_t i = touching[a].row, k = touching[bnd].row;
          normal(i, k) += v;
          if (i != k) normal(k, i) += v;
        }
      }
    }
    for (std::size_t i = 0; i < m_; ++i) {
      for (const auto& [v, ci] : p_.rows()[i].free_coeffs) {
        for (std::size_t k = i; k < m_; ++k) {
          const auto it = p_.rows()[k].free_coeffs.find(v);
          if (it == p_.rows()[k].free_coeffs.end()) continue;
          normal(i, k) += ci * it->second;
          if (i != k) normal(k, i) += ci * it->second;
        }
      }
    }
    chol_m_.emplace(Cholesky::factor_shifted(normal, 1e-12));
  }
  phase_.factor += setup_timer.seconds();
}

void AdmmEngine::init_state() {
  // State: primal (X, w), dual (y, S). X stays PSD by construction (it is
  // overwritten each iteration with rho U^-, the negative eigenpart).
  if (const WarmStart* ws = ctx_.warm_start; ws != nullptr && ws->fits(p_)) {
    // First-order iterates need no interior margin: restore the raw state.
    x_ = ws->x;
    s_ = ws->z;
    y_ = ws->y;
    w_ = ws->w;
    for (std::size_t j = 0; j < nblocks_; ++j) {
      x_[j].symmetrize();
      s_[j].symmetrize();
    }
  } else {
    // Cold start from fat identity iterates (the SDPT3-style magnitudes
    // the IPM uses) rather than zero: X = 0 is the most rank-deficient
    // point of the cone, and an interior start gives every eigendirection
    // initial mass. (This matters for basin quality, not for the
    // degenerate-drift lock below, which forms mid-descent regardless of
    // the start.)
    double xi = 10.0, eta = 10.0;
    for (std::size_t i = 0; i < m_; ++i) {
      double arow = 1.0;
      for (const auto& [j, a] : p_.rows()[i].blocks) arow = std::max(arow, a.frobenius_norm());
      xi = std::max(xi, (1.0 + std::fabs(p_.rhs(i))) / arow);
    }
    eta = std::max(eta, 1.0 + c_norm_);
    x_.clear();
    s_.clear();
    x_.reserve(nblocks_);
    s_.reserve(nblocks_);
    for (std::size_t j = 0; j < nblocks_; ++j) {
      const std::size_t n = p_.block_size(j);
      Matrix xj = Matrix::identity(n);
      xj.scale(xi);
      Matrix sj = Matrix::identity(n);
      sj.scale(eta);
      x_.push_back(std::move(xj));
      s_.push_back(std::move(sj));
    }
    y_.assign(m_, 0.0);
    w_.assign(nf_, 0.0);
  }

  // Iteration-invariant part of the y-update rhs: A_i(C) + B_i'f.
  rhs0_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const Row& row = p_.rows()[i];
    for (const auto& [j, a] : row.blocks) rhs0_[i] += a.dot(p_.block_objective(j));
    for (const auto& [v, c] : row.free_coeffs) rhs0_[i] += c * p_.free_objective()[v];
  }
}

void AdmmEngine::solve_y(const std::vector<Matrix>& x, const std::vector<Matrix>& s,
                         const Vector& w, double rho, Vector& y) const {
  // Right-hand side first, into y's storage.
  for (std::size_t i = 0; i < m_; ++i) {
    const Row& row = p_.rows()[i];
    double ax = 0.0;
    for (const auto& [j, a] : row.blocks) ax += a.dot(x[j]);
    for (const auto& [v, c] : row.free_coeffs) ax += c * w[v];
    y[i] = (row.rhs - ax) / rho + rhs0_[i];
    for (const auto& [j, a] : row.blocks) y[i] -= a.dot(s[j]);
  }
  // Injected iterate poisoning: a NaN here flows into y and from there into
  // every projection — the leak the control_step watchdog must classify.
  SOSLOCK_FAULT_HOOK(util::fault_site::kIterateNan, {
    if (!y.empty()) y[0] = std::numeric_limits<double>::quiet_NaN();
  });
  if (m_ > 0) {
    chol_m_->solve_lower_in_place(y.data());
    chol_m_->solve_lower_transposed_in_place(y.data());
  }
}

double AdmmEngine::project_block(std::size_t j, const Vector& y, double rho, Matrix& x_j,
                                 Matrix& s_j, SplitScratch& scratch) const {
  // U_j = alpha (C_j - A*_j y) + (1-alpha) S_j - X_j/rho; the eigensplit
  // gives S_j = U_j^+ and X_j = rho U_j^-, PSD by construction and
  // complementary up to eigensolver roundoff, with over-relaxation damping
  // the tail oscillation of the plain splitting.
  const std::size_t n = p_.block_size(j);
  double change = 0.0;
  if (n <= 2) {
    // The same U as the Matrix path below, on the stack.
    double u[4] = {0.0, 0.0, 0.0, 0.0};  // row-major n x n
    auto add = [&u, n](const SparseSym& a, double f) {
      for (const Triplet& t : a.entries) {
        u[t.r * n + t.c] += f * t.v;
        if (t.r != t.c) u[t.c * n + t.r] += f * t.v;
      }
    };
    add(p_.block_objective(j), 1.0);
    for (const BlockRowView& v : views_[j]) add(*v.coeff, -y[v.row]);
    const double* sd = s_j.data();
    const double* xd = x_j.data();
    const double inv_rho = 1.0 / rho;
    for (std::size_t k = 0; k < n * n; ++k) {
      u[k] = kOverRelaxation * u[k] + (1.0 - kOverRelaxation) * sd[k] - inv_rho * xd[k];
    }
    change = split_small(u, n, rho, s_j.data(), x_j.data());
  } else {
    Matrix& u_j = scratch.u;
    u_j.fill(0.0);
    p_.block_objective(j).add_to(u_j);
    for (const BlockRowView& v : views_[j]) v.coeff->add_to(u_j, -y[v.row]);
    u_j.scale(kOverRelaxation);
    u_j.axpy(1.0 - kOverRelaxation, s_j);
    u_j.axpy(-1.0 / rho, x_j);
    u_j.symmetrize();
    change = admm_split_psd(u_j, rho, s_j, x_j, scratch.eig);
  }
  return change / (rho * (1.0 + c_norm_));
}

double AdmmEngine::update_w(const Vector& y, Vector& w, double rho) const {
  if (nf_ == 0) return 0.0;
  double dres = 0.0;
  Vector bty(nf_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    if (y[i] == 0.0) continue;
    for (const auto& [v, c] : p_.rows()[i].free_coeffs) bty[v] += c * y[i];
  }
  for (std::size_t v = 0; v < nf_; ++v) {
    const double viol = bty[v] - p_.free_objective()[v];
    w[v] += kOverRelaxation * rho * viol;
    dres = std::max(dres, std::fabs(viol) / (1.0 + c_norm_));
  }
  return dres;
}

double AdmmEngine::primal_residual_inf(const std::vector<Matrix>& x, const Vector& w) const {
  double pres = 0.0;
  for (const Row& row : p_.rows()) {
    double ax = 0.0;
    for (const auto& [j, a] : row.blocks) ax += a.dot(x[j]);
    for (const auto& [v, c] : row.free_coeffs) ax += c * w[v];
    pres = std::max(pres, std::fabs(row.rhs - ax));
  }
  return pres;
}

double AdmmEngine::primal_objective(const std::vector<Matrix>& x, const Vector& w) const {
  double obj = linalg::dot(p_.free_objective(), w);
  for (std::size_t j = 0; j < nblocks_; ++j) obj += p_.block_objective(j).dot(x[j]);
  return obj;
}

double AdmmEngine::dual_objective(const Vector& y) const {
  double obj = 0.0;
  for (std::size_t i = 0; i < m_; ++i) obj += p_.rhs(i) * y[i];
  return obj;
}

void AdmmEngine::fill(Solution& out, const std::vector<Matrix>& x,
                      const std::vector<Matrix>& s, const Vector& y, const Vector& w,
                      double pres, double dres, double gap) const {
  out.x = x;
  out.z = s;
  out.y = y;
  out.w = w;
  out.primal_objective = primal_objective(x, w);
  out.dual_objective = dual_objective(y);
  double mu = 0.0;
  for (std::size_t j = 0; j < nblocks_; ++j) mu += linalg::dot(x[j], s[j]);
  out.mu = total_dim_ > 0 ? mu / static_cast<double>(total_dim_) : 0.0;
  out.primal_residual = pres;
  out.dual_residual = dres;
  out.gap = gap;
}

AdmmEngine::ControlAction AdmmEngine::control_step(int iter, double pres, double dres,
                                                   double gap, const std::vector<Matrix>& x,
                                                   const std::vector<Matrix>& s,
                                                   const Vector& y, const Vector& w,
                                                   Solution& best, double& best_merit,
                                                   int& stagnant) {
  constexpr int kStagnationWindow = 1000;

  // Watchdog first: a non-finite residual/gap or iterate means a NaN/Inf
  // entered the state (satellite fix: the old loop iterated to max_iter on a
  // poisoned iterate, because the residual max-reductions silently drop
  // NaNs — std::max(x, NaN) is x). Classify and bail with the phase named.
  if (!std::isfinite(pres + dres + gap)) {
    diverged_phase_ = !std::isfinite(pres)   ? "primal-residual"
                      : !std::isfinite(dres) ? "dual-residual"
                                             : "gap";
    util::log_info("admm: diverged at iteration ", iter, " (", diverged_phase_, ")");
    return ControlAction::Diverged;
  }
  if (!iterate_finite(x, s, y, w)) {
    diverged_phase_ = "iterate";
    util::log_info("admm: diverged at iteration ", iter, " (iterate)");
    return ControlAction::Diverged;
  }

  IterationInfo info;
  info.iteration = iter;
  info.primal_residual = pres;
  info.dual_residual = dres;
  info.gap = gap;
  ctx_.notify(info);

  if (iter % 100 == 0) {
    util::log_trace("admm ", iter, " rho=", rho_, " rp=", pres, " rd=", dres, " gap=",
                    gap);
  }

  // Best-iterate tracking: first-order iterates oscillate, and on degenerate
  // objectives the merit can plateau far from tolerance — in both cases the
  // caller gets the best iterate seen, and a long plateau stops early
  // instead of burning the remaining budget.
  const double merit = pres + dres + gap;
  if (merit < 0.99 * best_merit) {
    stagnant = 0;
  } else {
    ++stagnant;
  }
  if (merit < best_merit) {
    best_merit = merit;
    fill(best, x, s, y, w, pres, dres, gap);
  }

  if (pres < opt_.tolerance && dres < opt_.tolerance && gap < opt_.tolerance) {
    return ControlAction::Converged;
  }
  if (ctx_.interrupted()) {
    if (best_merit == std::numeric_limits<double>::infinity())
      fill(best, x, s, y, w, pres, dres, gap);
    return ControlAction::Interrupted;
  }

  // --- degenerate-drift classification. On non-strictly-complementary
  // optima (the maximize_region Lyapunov objective is the canonical in-tree
  // case) the projection splitting locks its eigenspace split: dres
  // collapses to machine noise while pres freezes and b'y crawls along a
  // nearly flat dual direction at a constant per-iteration delta. No penalty
  // schedule moves that floor (rho scans, restarts, over-relaxation and
  // exact inner ALM solves were all tried) — the honest move is to classify
  // early and hand the caller the best iterate plus its warm-start state,
  // instead of burning the remaining budget "stalled". The "auto" policy
  // backend then recovers by re-solving on the second-order backend from
  // this very iterate.
  const bool drift_locked =
      stagnant > 300 && dres < 1e-3 * pres && pres > 10.0 * opt_.tolerance;
  if (drift_locked || stagnant > kStagnationWindow) {
    if (drift_locked) {
      util::log_debug("admm: degenerate-drift lock classified at iter ", iter, " (rp=", pres,
                      ", rd=", dres, "); returning best iterate");
    }
    return ControlAction::ReturnBest;
  }

  // --- residual balancing (Boyd et al. sec. 3.4.1 mapped to the dual
  // splitting: dres is the penalized constraint, pres the multiplier), made
  // proportional — rescale by sqrt(ratio) toward balance, clamped to one
  // kRhoScale step per update. The PR 1 stall came from the unguarded branch
  // below: when dres collapses to machine noise the ratio says nothing about
  // rho (the degenerate-drift regime handled above), yet the old rule kept
  // halving rho until the multiplier steps were too small to ever move pres
  // again. Guard: leave rho alone once dres is noise-level.
  if (iter > 0 && iter % kRhoUpdateInterval == 0 && dres > 1e-10 && pres > 0.0) {
    const double ratio = dres / pres;
    if (ratio > kResidualBalance || ratio < 1.0 / kResidualBalance) {
      const double factor = std::clamp(std::sqrt(ratio), 1.0 / kRhoScale, kRhoScale);
      rho_ = std::clamp(rho_ * factor, 1e-6, 1e6);
    }
  }
  return ControlAction::Continue;
}

bool AdmmEngine::iterate_finite(const std::vector<Matrix>& x,
                                const std::vector<Matrix>& s, const Vector& y,
                                const Vector& w) {
  // One accumulator per solve: NaN and Inf both propagate through addition
  // (Inf + -Inf is NaN), so a single non-finite entry anywhere poisons the
  // sum. O(n^2) per block against the O(n^3) eigensplit per iteration.
  double acc = 0.0;
  for (const std::vector<Matrix>* set : {&x, &s}) {
    for (const Matrix& m : *set) {
      for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) acc += m(r, c);
      }
    }
  }
  for (const double v : y) acc += v;
  for (const double v : w) acc += v;
  return std::isfinite(acc);
}

Solution AdmmEngine::run() {
  rho_ = std::max(opt_.rho, 1e-8);
  setup_normal();
  init_state();

  double pres = 1.0, dres = 1.0, gap = 1.0;
  Solution best;
  double best_merit = std::numeric_limits<double>::infinity();
  int stagnant = 0;
  linalg::Vector dres_per_block(nblocks_, 0.0);
  ControlAction action = ControlAction::Continue;
  int iter = 0;
  for (; iter < opt_.max_iterations; ++iter) {
    util::Timer phase_timer;
    solve_y(x_, s_, w_, rho_, y_);
    phase_.schur += phase_timer.seconds();
    phase_timer.reset();
    // Blocks are independent given y (read-only here): one eigensplit per
    // block, fanned out on the pool. Each task writes only its own x_[j] /
    // s_[j] / split_[j] slot and dres slot, and the final max-reduction is
    // order-independent, so results are identical across thread counts.
    pool_.run_all(nblocks_, [&](std::size_t j) {
      dres_per_block[j] = project_block(j, y_, rho_, x_[j], s_[j], split_[j]);
    });
    dres = 0.0;
    for (double d : dres_per_block) dres = std::max(dres, d);
    phase_.eig += phase_timer.seconds();
    phase_timer.reset();
    dres = std::max(dres, update_w(y_, w_, rho_));
    pres = primal_residual_inf(x_, w_) / (1.0 + data_norm_);
    const double pobj = primal_objective(x_, w_);
    const double dobj = dual_objective(y_);
    gap = std::fabs(pobj - dobj) / (1.0 + std::fabs(pobj) + std::fabs(dobj));
    phase_.recover += phase_timer.seconds();

    action =
        control_step(iter, pres, dres, gap, x_, s_, y_, w_, best, best_merit, stagnant);
    if (action != ControlAction::Continue) break;
  }

  Solution sol;
  switch (action) {
    case ControlAction::Converged:
      fill(sol, x_, s_, y_, w_, pres, dres, gap);
      sol.status = SolveStatus::Optimal;
      break;
    case ControlAction::Interrupted:
      sol = std::move(best);
      sol.status = SolveStatus::Interrupted;
      break;
    case ControlAction::ReturnBest:
      sol = std::move(best);
      sol.status = SolveStatus::MaxIterations;
      break;
    case ControlAction::Diverged:
      if (best_merit == std::numeric_limits<double>::infinity())
        fill(best, x_, s_, y_, w_, pres, dres, gap);
      sol = std::move(best);
      sol.status = SolveStatus::Diverged;
      sol.faulted_phase = diverged_phase_;
      break;
    case ControlAction::Continue:  // iteration budget exhausted
      if (best_merit == std::numeric_limits<double>::infinity())
        fill(best, x_, s_, y_, w_, pres, dres, gap);
      sol = std::move(best);
      sol.status = SolveStatus::MaxIterations;
      break;
  }
  // Every exit counts the iterations run (iteration `iter` ran unless the
  // budget ran out), also when the iterate returned is an earlier one.
  sol.iterations = action == ControlAction::Continue ? iter : iter + 1;
  sol.phase = phase_;
  return sol;
}

}  // namespace

double admm_split_psd(const Matrix& u, double rho, Matrix& s, Matrix& x,
                      linalg::EigenWork& work) {
  const std::size_t n = u.rows();
  if (s.rows() != n || s.cols() != n) s = Matrix(n, n);
  if (x.rows() != n || x.cols() != n) x = Matrix(n, n);
  if (n <= 2) return split_small(u.data(), n, rho, s.data(), x.data());
  if (work.reduced.rows() != n) work = linalg::EigenWork(n);
  const linalg::Kernels& kern = linalg::active_kernels();
  const std::size_t nn = n * n;
  const double* pu = u.data();
  // U^- is built in S's storage (S's old value is dead); recombine then
  // turns it into S = U + U^- in place.
  double* neg = s.data();
  // Screen: when -U factors, U is negative definite (to within the factor's
  // roundoff, far below the eigensolver's), so U^- = -U, S = 0 and no
  // eigensolve. On the clock-tree cliques about one call in nine.
  double* l = work.reduced.data();
  for (std::size_t k = 0; k < nn; ++k) l[k] = -pu[k];
  if (kern.chol_factor_panel(n, 0, l, n)) {
    for (std::size_t k = 0; k < nn; ++k) neg[k] = -pu[k];
    return recombine(neg, pu, nn, rho, s.data(), x.data());
  }
  // U^- = P^T P with P's rows the negative eigenvectors scaled by
  // sqrt(-lambda): a GEMM on the eigenpanel, so X keeps its Gram shape. The
  // rows of P are compacted into the leading rows of vectors_t, and P^T
  // (n x nneg) goes into the reduction scratch, which is free again.
  linalg::eigen_sym_rows(u, work);
  std::size_t nneg = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (!(work.values[k] < 0.0)) continue;
    const double scale = std::sqrt(-work.values[k]);
    const double* v = work.vectors_t.row_ptr(k);
    double* p = work.vectors_t.row_ptr(nneg++);
    for (std::size_t i = 0; i < n; ++i) p[i] = scale * v[i];
  }
  double* pt = work.reduced.data();
  for (std::size_t t = 0; t < nneg; ++t) {
    const double* p = work.vectors_t.row_ptr(t);
    for (std::size_t i = 0; i < n; ++i) pt[i * nneg + t] = p[i];
  }
  std::fill(neg, neg + nn, 0.0);
  kern.gemm_acc(n, n, nneg, pt, nneg, work.vectors_t.data(), n, neg, n);
  return recombine(neg, pu, nn, rho, s.data(), x.data());
}

Solution AdmmSolver::solve(const Problem& problem, SolveContext& context) const {
  // Row equilibration is the caller's job (SosProgram::solve applies it to
  // every compiled program); see IpmSolver::solve for the warm-start rationale.
  const util::Timer timer;
  AdmmEngine engine(problem, options_, threads_, context,
                    *StructureCache::global().get(problem));
  Solution sol = engine.run();
  sol.backend = name();
  sol.solve_seconds = timer.seconds();
  util::log_debug("admm: ", to_string(sol.status), " after ", sol.iterations,
                  " iters, gap=", sol.gap, ", rp=", sol.primal_residual);
  return sol;
}

}  // namespace soslock::sdp
