#pragma once
// Infeasible-start primal-dual interior-point method for the block SDP of
// problem.hpp. HKM (Helmberg-Kojima-Monteiro) search direction with Mehrotra
// predictor-corrector; free variables are handled exactly via block
// elimination on the Schur complement.
//
// The second-order, high-accuracy SolverBackend ("ipm" to make_solver); the
// workhorse behind every SOS feasibility/optimization query in the
// verification pipeline.
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

}  // namespace soslock::sdp
