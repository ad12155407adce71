#include "sweep/query.hpp"

namespace soslock::sweep {

CertificationQuery lyapunov_query(const LyapunovQueryOptions& options) {
  CertificationQuery query;
  query.name = options.vertices ? "lyapunov.averaged_vertices" : "lyapunov.averaged";
  sdp::SolverConfig config;
  config.sparsity = options.sparsity;
  config.chordal = options.chordal;
  query.build = [options, config](const pll::Params& params) {
    const pll::ReducedModel model = options.vertices
                                        ? pll::make_averaged_vertices(params, options.model)
                                        : pll::make_averaged(params, options.model);
    core::LyapunovProgram lp =
        core::build_lyapunov_program(model.system, options.lyapunov, config);
    return std::move(lp.program);
  };
  return query;
}

}  // namespace soslock::sweep
