#pragma once
// Certification queries: what question the sweep asks at every design point.
// A query maps a concrete pll::Params to the SOS program whose feasibility
// (plus independent audit) is that point's verdict. The stock query is the
// paper's Lyapunov lock certification over the averaged model, built through
// core::build_lyapunov_program so the sweep certifies with exactly the
// certifier's program shape — which is also what makes the sweep hot path
// work: every grid point compiles to a structurally identical SDP, so the
// lowering cache's in-place coefficient-update pass (sdp::LoweringCache)
// replaces the full pipeline from the second point on.
#include <functional>
#include <string>

#include "core/lyapunov.hpp"
#include "pll/models.hpp"
#include "sos/program.hpp"

namespace soslock::sweep {

/// One design-point certification question. `build` must be thread-safe
/// (sweep lanes call it concurrently) and should produce structurally
/// identical programs across the grid — values may differ freely.
struct CertificationQuery {
  std::string name;
  std::function<sos::SosProgram(const pll::Params&)> build;
};

/// Tuning of the stock Lyapunov lock query. Defaults favor sweep throughput
/// over certificate quality: a degree-2 common certificate on the nominal
/// averaged model (the swept axes carry the design variation; the pump
/// interval is not additionally lifted into an uncertain parameter).
struct LyapunovQueryOptions {
  pll::ModelOptions model;
  core::LyapunovOptions lyapunov;
  /// Correlative Gram split of the compiled program (the Gram structure is
  /// fixed at build time). A sweep whose SweepOptions::solver sets
  /// correlative_sparsity should set the same value here so the compiled
  /// structure matches what the sweep solves.
  bool correlative_sparsity = false;
  /// Use make_averaged_vertices (one mode per extreme pump value) instead of
  /// the single-mode averaged model.
  bool vertices = false;

  LyapunovQueryOptions() {
    model.uncertain_pump = false;
    lyapunov.certificate_degree = 2;
    lyapunov.common_certificate = true;
  }
};

/// The stock query: does a Lyapunov certificate exist for the averaged PLL
/// at this design point?
CertificationQuery lyapunov_query(const LyapunovQueryOptions& options = {});

}  // namespace soslock::sweep
