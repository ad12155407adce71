#include "sdp/solver.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "sdp/admm.hpp"
#include "sdp/ipm.hpp"
#include "sdp/resilience.hpp"
#include "util/log.hpp"
#include "util/thread_annotations.hpp"

namespace soslock::sdp {
namespace {

struct Registry {
  util::Mutex mutex;
  std::map<std::string, BackendFactory> factories SOSLOCK_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    // The static-init guard already serializes this, but the analysis (and
    // the lock discipline) do not special-case it.
    const util::MutexLock lock(reg->mutex);
    reg->factories["ipm"] = [](const SolverConfig& config) -> std::unique_ptr<SolverBackend> {
      return std::make_unique<IpmSolver>(config.resolved_ipm());
    };
    reg->factories["admm"] = [](const SolverConfig& config) -> std::unique_ptr<SolverBackend> {
      return std::make_unique<AdmmSolver>(config.resolved_admm());
    };
    return reg;
  }();
  return *r;
}

/// Meta-backend: inspects the problem at solve() time and delegates to the
/// first- or second-order backend by largest PSD block size. The Schur
/// assembly of the IPM costs O(m * n^3 + m^2 n^2) per iteration against the
/// ADMM's single O(n^3) eigendecomposition, so large Gram blocks tip the
/// balance to the first-order method despite its weaker accuracy.
///
/// Recovery is delegated to sdp::resilient_solve under config.resilience:
/// with the default policy an ADMM drift-lock escalates to a warm-started
/// IPM exactly as the old hard-coded rescue did, and transient failures
/// (Diverged/Faulted/NumericalProblem) get a jittered same-backend retry
/// first. The certificate audit remains the soundness gate above all of
/// this.
class AutoSolver : public SolverBackend {
 public:
  explicit AutoSolver(SolverConfig config) : config_(std::move(config)) {}

  using SolverBackend::solve;
  Solution solve(const Problem& problem, SolveContext& context) const override {
    util::log_debug("solver auto: delegating to ", auto_backend_for(problem, config_),
                    " under the resilience policy");
    SolverConfig config = config_;
    config.backend = "auto";  // let resilient_solve resolve per problem
    return resilient_solve(problem, context, config);
  }

  std::string name() const override { return "auto"; }
  Capabilities capabilities() const override {
    // Problem-dependent: above the block threshold the delegate is the ADMM,
    // which has none of these, so nothing can be promised up front.
    return {};
  }

 private:
  SolverConfig config_;
};

}  // namespace

bool WarmStart::fits(const Problem& problem) const {
  if (x.size() != problem.num_blocks() || z.size() != problem.num_blocks()) return false;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j].rows() != problem.block_size(j) || z[j].rows() != problem.block_size(j))
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
  if (verbose) out.verbose = true;
  return out;
}

AdmmOptions SolverConfig::resolved_admm() const {
  AdmmOptions out = admm;
  if (tolerance > 0.0) out.tolerance = tolerance;
  if (max_iterations > 0) out.max_iterations = max_iterations;
  if (verbose) out.verbose = true;
  if (threads != 1) out.threads = threads;
  return out;
}

bool register_backend(const std::string& name, BackendFactory factory) {
  if (name == "auto" || !factory) return false;
  Registry& reg = registry();
  const util::MutexLock lock(reg.mutex);
  return reg.factories.emplace(name, std::move(factory)).second;
}

std::vector<std::string> registered_backends() {
  Registry& reg = registry();
  const util::MutexLock lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size() + 1);
  for (const auto& [name, factory] : reg.factories) names.push_back(name);
  names.push_back("auto");
  std::sort(names.begin(), names.end());
  return names;
}

std::unique_ptr<SolverBackend> make_solver(const std::string& name,
                                           const SolverConfig& config) {
  if (name == "auto") return std::make_unique<AutoSolver>(config);
  Registry& reg = registry();
  BackendFactory factory;
  {
    const util::MutexLock lock(reg.mutex);
    const auto it = reg.factories.find(name);
    if (it != reg.factories.end()) factory = it->second;
  }
  if (!factory) throw std::invalid_argument("unknown SDP solver backend: " + name);
  return factory(config);
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
