#pragma once
// Infeasible-start primal-dual interior-point method for the block SDP of
// problem.hpp. HKM (Helmberg-Kojima-Monteiro) search direction with Mehrotra
// predictor-corrector; free variables are handled exactly via block
// elimination on the Schur complement.
//
// The second-order, high-accuracy SolverBackend ("ipm" to make_solver); the
// workhorse behind every SOS feasibility/optimization query in the
// verification pipeline.
//
// Per-solve storage: every per-block matrix (factors, Z^{-1}, residuals,
// directions, corrector terms, step-length scratch) and every per-row
// vector of the KKT solves lives on the solve's one Ipm object, shaped in
// its constructor or in the first iteration and overwritten every step
// after that. A solve allocates nothing after its first Newton step
// (tests/alloc_test.cpp counts it); each in-place form runs the same
// kernels in the same order as the allocating form it replaced, so the
// iterates are the same bits.
#include <cstddef>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "sdp/options.hpp"
#include "sdp/problem.hpp"
#include "sdp/solver.hpp"

namespace soslock::sdp {

class IpmSolver : public SolverBackend {
 public:
  explicit IpmSolver(IpmOptions options = {}) : options_(options) {}

  using SolverBackend::solve;
  /// Solve the problem as given (equilibrate rows first for SOS-scale data;
  /// SosProgram::solve does). A fitting SolveContext::warm_start is restored
  /// with a shifted-feasible interior push.
  Solution solve(const Problem& problem, SolveContext& context) const override;

  std::string name() const override { return "ipm"; }

 private:
  IpmOptions options_;
};

/// Storage of psd_step_length, reused across calls and across blocks of
/// different sizes. The constructor sizes every member for the largest
/// block; Matrix copy-assignment and Vector resizes keep that storage for
/// each smaller block, so a scan allocates nothing.
struct StepLengthWork {
  StepLengthWork() = default;
  explicit StepLengthWork(std::size_t max_block);

  linalg::Matrix screen;      // X_j + alpha dX_j, factored in place
  linalg::Matrix lower;       // F = L^{-1} dX_j
  linalg::Matrix congruence;  // L^{-1} F^T = L^{-1} dX_j L^{-T}
  linalg::Vector acc;         // the multi-RHS forward solves' scratch
  linalg::EigenWork eig;      // the smallest eigenvalue's storage
};

/// Largest alpha in (0, cap] with X_j + alpha dX_j PSD for every block j,
/// given PD blocks X_j and their Cholesky factors: the IPM's primal (X, dX)
/// and dual (Z, dZ) step bound, `cap` when no block binds. The scan starts
/// at block `start` and screens each block of size >= 2 with an unshifted
/// Cholesky of X_j + alpha dX_j at the running alpha: a block that factors
/// cannot lower alpha and needs no eigenvalue; one that does not gets the
/// exact bound from the smallest eigenvalue of L^{-1} dX_j L^{-T}. A block
/// whose factor carries a shift (X_j not numerically PD) gets the exact
/// bound unscreened; 1x1 blocks take the closed form. On return `start`
/// names the block that bound (unchanged when none did), so the next call
/// tries it first. Every temporary lives in `work`.
double psd_step_length(const std::vector<linalg::Matrix>& x,
                       const std::vector<linalg::Cholesky>& chol,
                       const std::vector<linalg::Matrix>& dx, double cap,
                       std::size_t& start, StepLengthWork& work);

}  // namespace soslock::sdp
