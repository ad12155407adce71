#include "sdp/solver.hpp"

#include <algorithm>
#include <stdexcept>

#include "sdp/admm.hpp"
#include "sdp/ipm.hpp"
#include "sdp/resilience.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace soslock::sdp {
namespace {

/// Meta-backend: inspects the problem at solve() time and delegates to the
/// first- or second-order backend by largest PSD block size. The Schur
/// assembly of the IPM costs O(m * n^3 + m^2 n^2) per iteration against the
/// ADMM's single O(n^3) eigendecomposition, so large Gram blocks tip the
/// balance to the first-order method despite its weaker accuracy.
///
/// Recovery is delegated to sdp::resilient_solve: an ADMM drift-lock
/// escalates to a warm-started IPM, and transient failures
/// (Diverged/Faulted/NumericalProblem) first get a same-backend retry with
/// admm.rho and ipm.warm_start_margin scaled by 1.5. The certificate audit
/// remains the soundness gate above all of this.
class AutoSolver : public SolverBackend {
 public:
  explicit AutoSolver(SolverConfig config) : config_(std::move(config)) {}

  using SolverBackend::solve;
  Solution solve(const Problem& problem, SolveContext& context) const override {
    util::log_debug("solver auto: delegating to ", auto_backend_for(problem, config_),
                    " under the recovery policy");
    SolverConfig config = config_;
    config.backend = "auto";  // let resilient_solve resolve per problem
    return resilient_solve(problem, context, config);
  }

  std::string name() const override { return "auto"; }

 private:
  SolverConfig config_;
};

}  // namespace

bool WarmStart::fits(const Problem& problem) const {
  if (x.size() != problem.num_blocks() || z.size() != problem.num_blocks()) return false;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const std::size_t n = problem.block_size(j);
    if (x[j].rows() != n || x[j].cols() != n || z[j].rows() != n || z[j].cols() != n)
      return false;
  }
  return y.size() == problem.num_rows() && w.size() == problem.num_free();
}

WarmStart make_warm_start(const Solution& solution, std::uint64_t fingerprint) {
  WarmStart ws;
  ws.fingerprint = fingerprint;
  ws.x = solution.x;
  ws.z = solution.z;
  ws.y = solution.y;
  ws.w = solution.w;
  return ws;
}

IpmOptions SolverConfig::resolved_ipm() const {
  IpmOptions out = ipm;
  if (tolerance > 0.0) out.tolerance = tolerance;
  if (max_iterations > 0) out.max_iterations = max_iterations;
  return out;
}

AdmmOptions SolverConfig::resolved_admm() const {
  AdmmOptions out = admm;
  if (tolerance > 0.0) out.tolerance = tolerance;
  if (max_iterations > 0) out.max_iterations = max_iterations;
  return out;
}

SolverConfig share_threads(const SolverConfig& config, std::size_t workers) {
  SolverConfig out = config;
  const std::size_t want =
      config.threads == 0 ? util::ThreadPool::hardware_threads() : config.threads;
  out.threads = std::max<std::size_t>(1, want / std::max<std::size_t>(1, workers));
  return out;
}

std::unique_ptr<SolverBackend> make_solver(const std::string& name,
                                           const SolverConfig& config) {
  if (name == "ipm") return std::make_unique<IpmSolver>(config.resolved_ipm());
  if (name == "admm")
    return std::make_unique<AdmmSolver>(config.resolved_admm(), config.threads);
  if (name == "auto") return std::make_unique<AutoSolver>(config);
  throw std::invalid_argument("unknown SDP solver backend: " + name);
}

std::unique_ptr<SolverBackend> make_solver(const SolverConfig& config) {
  return make_solver(config.backend, config);
}

std::string auto_backend_for(const Problem& problem, const SolverConfig& config) {
  std::size_t max_block = 0;
  for (std::size_t j = 0; j < problem.num_blocks(); ++j)
    max_block = std::max(max_block, problem.block_size(j));
  return max_block >= config.auto_block_threshold ? "admm" : "ipm";
}

}  // namespace soslock::sdp
