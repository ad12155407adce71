#include "core/pipeline.hpp"

#include <cstdio>

#include "util/log.hpp"

namespace soslock::core {

using poly::Polynomial;

std::string to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::VerifiedByAdvection: return "VerifiedByAdvection";
    case Verdict::VerifiedWithEscape: return "VerifiedWithEscape";
    case Verdict::AttractiveInvariantOnly: return "AttractiveInvariantOnly";
    case Verdict::Failed: return "Failed";
  }
  return "?";
}

std::string PipelineReport::summary() const {
  std::string out = "verdict: " + to_string(verdict) + "\n";
  if (!levels.levels.empty()) {
    out += "  levels:";
    char buf[48];
    for (double c : levels.levels) {
      std::snprintf(buf, sizeof(buf), " %.4g", c);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "  (consistent %.4g)\n", levels.consistent_level);
    out += buf;
  }
  out += "  advection iterations: " + std::to_string(advection_iterations) +
         (advection_included ? " (immersed)" : " (not immersed)") + "\n";
  if (escape.num_certificates > 0)
    out += "  escape certificates: " + std::to_string(escape.num_certificates) + "\n";
  if (!message.empty()) out += "  note: " + message + "\n";
  out += timings.str("  timings (paper Table 2 rows):");
  return out;
}

PipelineReport InevitabilityVerifier::verify(const hybrid::HybridSystem& system,
                                             const Polynomial& b_init) const {
  PipelineReport report;
  util::Timer timer;

  // --- P1, step 1: attractive invariant (multiple Lyapunov certificates).
  timer.reset();
  const LyapunovSynthesizer lyap(options_.lyapunov, options_.solver);
  report.lyapunov = lyap.synthesize(system);
  report.solver.merge(report.lyapunov.solver);
  report.timings.add("Attractive Invariant", timer.seconds(),
                     "degree " + std::to_string(options_.lyapunov.certificate_degree) + ", " +
                         report.lyapunov.solver.str());
  if (!report.lyapunov.success) {
    report.verdict = Verdict::Failed;
    report.message = report.lyapunov.message;
    return report;
  }

  // --- P1, step 2: maximized level curves.
  timer.reset();
  const LevelSetMaximizer levels(options_.level, options_.solver);
  report.levels = levels.maximize(system, report.lyapunov.certificates);
  report.solver.merge(report.levels.solver);
  report.timings.add("Max.Level Curves", timer.seconds(), report.levels.solver.str());
  if (!report.levels.success) {
    report.verdict = Verdict::Failed;
    report.message = report.levels.message;
    return report;
  }
  report.invariant.certificates = report.lyapunov.certificates;
  report.invariant.levels = report.levels.levels;
  report.invariant.consistent_level = report.levels.consistent_level;

  // --- P2: bounded advection with immersion checks.
  const AdvectionEngine advect(system, options_.advection, options_.solver);
  const InclusionChecker inclusion(options_.inclusion, options_.solver);
  report.advection_iterates.push_back(b_init);

  double advect_time = 0.0, inclusion_time = 0.0;
  sos::SolveStats advect_stats, inclusion_stats;
  Polynomial current = b_init;
  // Initial set may already be immersed.
  timer.reset();
  InclusionResult incl = inclusion.subset_of_invariant(
      current, system, report.invariant.certificates, report.invariant.consistent_level);
  inclusion_time += timer.seconds();
  inclusion_stats.merge(incl.solver);
  report.advection_included = incl.included;

  while (!report.advection_included &&
         report.advection_iterations < options_.max_advection_iterations) {
    timer.reset();
    const AdvectionStepResult step = advect.step(current);
    advect_time += timer.seconds();
    advect_stats.merge(step.solver);
    if (!step.success) {
      report.message = step.message;
      break;
    }
    current = step.next;
    report.advection_iterates.push_back(current);
    ++report.advection_iterations;

    timer.reset();
    incl = inclusion.subset_of_invariant(current, system, report.invariant.certificates,
                                         report.invariant.consistent_level);
    inclusion_time += timer.seconds();
    inclusion_stats.merge(incl.solver);
    report.advection_included = incl.included;
    util::log_info("pipeline: advection iteration ", report.advection_iterations,
                   incl.included ? " -> immersed" : " -> not yet immersed");
  }
  report.timings.add("Advection", advect_time,
                     std::to_string(report.advection_iterations) + " iterations, " +
                         advect_stats.str());
  report.timings.add("Checking Set Inclusion", inclusion_time, inclusion_stats.str());
  report.solver.merge(advect_stats);
  report.solver.merge(inclusion_stats);
  report.residual_modes = incl.failed_modes;

  if (report.advection_included) {
    report.verdict = Verdict::VerifiedByAdvection;
    return report;
  }

  // --- Algorithm 1 lines 13-18: escape certificates on the residual region.
  if (options_.escape_fallback && !report.residual_modes.empty()) {
    timer.reset();
    const EscapeCertifier escaper(options_.escape, options_.solver);
    report.escape =
        escaper.certify(system, report.residual_modes, current,
                        report.invariant.certificates, report.invariant.consistent_level);
    report.solver.merge(report.escape.solver);
    report.timings.add("Escape Certificate", timer.seconds(),
                       std::to_string(report.escape.num_certificates) + " certificates, " +
                           report.escape.solver.str());
    if (report.escape.success) {
      report.verdict = Verdict::VerifiedWithEscape;
      return report;
    }
    report.message = report.escape.message;
  }

  report.verdict = Verdict::AttractiveInvariantOnly;
  return report;
}

}  // namespace soslock::core
