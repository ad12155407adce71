#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "sdp/lowering.hpp"
#include "sdp/solver.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"
#include "sweep/grid.hpp"
#include "sweep/query.hpp"
#include "sweep/service.hpp"

namespace perfbench {

using namespace soslock;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

/// Sums of the backend telemetry that sos::SolveStats and sdp::Solution
/// carry, over the solves behind one request.
struct SdpTotals {
  double solves = 0, iterations = 0, seconds = 0, recoveries = 0;
  sdp::PhaseTimes phase;

  void add(const sos::SolveStats& s) {
    solves += s.solves;
    iterations += s.iterations;
    seconds += s.seconds;
    recoveries += s.recoveries;
    phase.merge(s.phase);
  }
  void add(const sdp::Solution& s) {
    solves += 1;
    iterations += s.iterations;
    seconds += s.solve_seconds;
    recoveries += static_cast<double>(s.recoveries.size());
    phase.merge(s.phase);
  }
  /// this += weight * other.
  void add(const SdpTotals& other, double weight) {
    solves += weight * other.solves;
    iterations += weight * other.iterations;
    seconds += weight * other.seconds;
    recoveries += weight * other.recoveries;
    for (auto [to, from] : {std::pair{&phase.schur, other.phase.schur},
                            {&phase.factor, other.phase.factor},
                            {&phase.eig, other.phase.eig},
                            {&phase.recover, other.phase.recover},
                            {&phase.convert, other.phase.convert},
                            {&phase.complete, other.phase.complete}})
      *to += weight * from;
  }

  /// Emit the sdp.* metrics, dividing the sums by `requests`.
  void emit(Metrics& out, double requests) const {
    const double backend_phases = phase.schur + phase.factor + phase.eig + phase.recover;
    out["sdp.solves"] = solves / requests;
    out["sdp.iterations"] = iterations / requests;
    out["sdp.solve_s"] = seconds / requests;
    out["sdp.iteration_ms"] = iterations > 0 ? 1e3 * seconds / iterations : 0.0;
    out["sdp.recoveries"] = recoveries / requests;
    out["sdp.phase.schur_s"] = phase.schur / requests;
    out["sdp.phase.factor_s"] = phase.factor / requests;
    out["sdp.phase.eig_s"] = phase.eig / requests;
    out["sdp.phase.recover_s"] = phase.recover / requests;
    out["sdp.phase.convert_s"] = phase.convert / requests;
    out["sdp.phase.complete_s"] = phase.complete / requests;
    out["sdp.phase.untimed_s"] = (seconds - backend_phases) / requests;
  }
};

/// sdp.pass.<name>_s sums from a lowering's provenance records.
void add_passes(Metrics& sums, const std::vector<sdp::PassRecord>& passes) {
  for (const sdp::PassRecord& pass : passes) sums["sdp.pass." + pass.name + "_s"] += pass.seconds;
}

void emit_means(const Metrics& sums, double requests, Metrics& out) {
  for (const auto& [name, value] : sums) out[name] = value / requests;
}

// ----------------------------------------------------------------- table2 ---

/// Initial region 0.5 * (sum (x_i/a_i)^2 - 1) <= 0.
poly::Polynomial ellipsoid(std::size_t nvars, const std::vector<double>& semiaxes) {
  poly::Polynomial b(nvars);
  for (std::size_t i = 0; i < semiaxes.size(); ++i) {
    const poly::Polynomial x = poly::Polynomial::variable(nvars, i);
    b += (1.0 / (semiaxes[i] * semiaxes[i])) * x * x;
  }
  b -= poly::Polynomial::constant(nvars, 1.0);
  b *= 0.5;
  return b;
}

/// One order of the paper's CP PLL, with the Table-1 parameters and the
/// option set of examples/pll{3,4}_inevitability.cpp.
struct PllCase {
  std::string name;
  pll::ReducedModel model;
  core::PipelineOptions options;
  poly::Polynomial b_init;
  core::Verdict expected;

  explicit PllCase(int order)
      : name(order == 3 ? "pll3" : "pll4"),
        model(pll::make_averaged(order == 3 ? pll::Params::paper_third_order()
                                            : pll::Params::paper_fourth_order())),
        b_init(order == 3 ? ellipsoid(model.system.nvars(), {5.0, 4.2, 0.9})
                          : ellipsoid(model.system.nvars(), {6.0, 6.0, 6.0, 0.9})),
        expected(order == 3 ? core::Verdict::VerifiedByAdvection
                            : core::Verdict::VerifiedWithEscape) {
    options.lyapunov.certificate_degree = 2;
    options.lyapunov.flow_decrease = core::FlowDecrease::Strict;
    options.lyapunov.maximize_region = true;
    options.advection.eps = 0.3;
    if (order == 3) {
      options.lyapunov.strict_margin = 1e-4;
      options.advection.h = 0.01;
      options.advection.gamma = 0.008;
      options.max_advection_iterations = 14;
    } else {
      options.lyapunov.strict_margin = 1e-5;
      options.advection.h = 0.004;
      options.advection.gamma = 0.01;
      options.max_advection_iterations = 3;
      options.escape.certificate_degree = 4;
    }
  }
};

/// Table-2 row names of PipelineReport::timings -> per-layer metric.
const std::vector<std::pair<std::string, std::string>>& table2_rows() {
  static const std::vector<std::pair<std::string, std::string>> rows = {
      {"Attractive Invariant", "core.invariant"},
      {"Max.Level Curves", "core.levels"},
      {"Advection", "core.advection"},
      {"Checking Set Inclusion", "core.inclusion"},
      {"Escape Certificate", "core.escape"},
  };
  return rows;
}

class Table2 final : public Workload {
 public:
  Table2() : cases_{PllCase(3), PllCase(4)} {}

  int verdicts_per_request() const override { return 2; }
  std::size_t threads() const override { return 1; }

  Outcome request(Tracer* tracer) override {
    Outcome out;
    for (std::size_t i = 0; i < 2; ++i) {
      const PllCase& c = cases_[i];
      const Clock::time_point start = Clock::now();
      Scope span(tracer, "core.verify." + c.name);
      core::PipelineReport report =
          core::InevitabilityVerifier(c.options).verify(c.model.system, c.b_init);
      const double wall = span.stop();
      ++out.attempted;
      if (report.verdict == c.expected && report.lyapunov.audit.ok) ++out.correct;
      if (tracer != nullptr) absorb(*tracer, i, std::move(report), start, wall);
    }
    if (tracer != nullptr) ++traced_;
    return out;
  }

  bool finish_trace(Tracer& tracer, Metrics& out) override {
    if (traced_ == 0) return false;
    // The advection and inclusion rows carry their solver telemetry only in
    // note strings, so replay those steps through the public step calls on
    // the last traced report's invariant, and check the replay reproduces
    // the traced run: same step count, same immersion outcome.
    bool ok = true;
    SdpTotals replayed;
    for (std::size_t i = 0; i < 2; ++i) {
      const PllCase& c = cases_[i];
      const core::PipelineReport& report = last_[i];
      tracer.begin_request();
      const Scope replay_span(&tracer, "core.replay." + c.name);
      const core::AdvectionEngine advect(c.model.system, c.options.advection);
      const core::InclusionChecker inclusion(c.options.inclusion);
      auto included = [&](const poly::Polynomial& b) {
        const Scope span(&tracer, "core.inclusion");
        const core::InclusionResult result = inclusion.subset_of_invariant(
            b, c.model.system, report.invariant.certificates,
            report.invariant.consistent_level);
        replayed.add(result.solver);
        return result.included;
      };
      poly::Polynomial current = c.b_init;
      bool immersed = included(current);
      int steps = 0;
      while (!immersed && steps < c.options.max_advection_iterations) {
        Scope span(&tracer, "core.advection");
        const core::AdvectionStepResult step = advect.step(current);
        span.stop();
        replayed.add(step.solver);
        if (!step.success) break;
        current = step.next;
        ++steps;
        immersed = included(current);
      }
      ok = ok && steps == report.advection_iterations && immersed == report.advection_included;
    }

    const double n = traced_;
    emit_means(sums_, n, out);
    out["core.untimed_s"] = (sums_["core.pll3_s"] + sums_["core.pll4_s"] - rows_) / n;
    // Per request: the traced requests' mean plus the one replay.
    SdpTotals total = replayed;
    total.add(deductive_, 1.0 / n);
    total.emit(out, 1.0);
    return ok;
  }

 private:
  /// Per-layer bookkeeping of one traced verify() call.
  void absorb(Tracer& tracer, std::size_t i, core::PipelineReport report,
              Clock::time_point start, double wall) {
    sums_["core." + cases_[i].name + "_s"] += wall;
    sums_["core.advection_steps"] += report.advection_iterations;
    // The Table-2 rows, laid end to end inside the verify() span (advection
    // and inclusion really interleave; the trace shows their totals).
    Clock::time_point at = start;
    for (const util::TimingTable::Entry& entry : report.timings.entries()) {
      for (const auto& [row, metric] : table2_rows()) {
        if (entry.name != row) continue;
        const Clock::time_point end =
            at + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(entry.seconds));
        tracer.record(metric + "." + cases_[i].name, at, end);
        at = end;
        sums_[metric + "_s"] += entry.seconds;
        rows_ += entry.seconds;
      }
    }
    deductive_.add(report.lyapunov.solver);
    deductive_.add(report.levels.solver);
    deductive_.add(report.escape.solver);
    last_[i] = std::move(report);
  }

  PllCase cases_[2];
  int traced_ = 0;
  Metrics sums_;
  double rows_ = 0.0;        // summed Table-2 row seconds
  SdpTotals deductive_;      // invariant, levels and escape solves
  core::PipelineReport last_[2];
};

// ------------------------------------------------------------------ sweep ---

/// splitmix64: the seed -> axis-shift generator.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform in [-0.03, 0.03].
double shift(std::uint64_t& state) {
  return 0.06 * (static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53 - 0.5);
}

/// Third-order ip x kv x R grid around the paper's design. Axis 0 (ip) is
/// the warm-chaining direction; its five points put one in five at ip < 0,
/// none closer to 0 than 40% of the nominal pump current. The seed scales
/// each axis's bounds by up to +-3% (ip's both ends by one factor, so the
/// polarity split stays put).
sweep::Grid make_grid(std::uint64_t seed) {
  std::uint64_t state = seed;
  const double ip = 1.0 + shift(state), kv = 1.0 + shift(state);
  const double r_lo = 1.0 + shift(state), r_hi = 1.0 + shift(state);
  return sweep::Grid(pll::Params::paper_third_order(),
                     {
                         {sweep::Axis::Ip, 5, -200e-6 * ip, 1400e-6 * ip, 5e-6},
                         {sweep::Axis::Kv, 8, 100.0 * kv, 300.0 * kv, 2.0},
                         {sweep::Axis::R, 8, 5e3 * r_lo, 40e3 * r_hi, 0.0},
                     });
}

class Sweep final : public Workload {
 public:
  explicit Sweep(std::uint64_t seed) : grid_(make_grid(seed)), query_(sweep::lyapunov_query()) {
    options_.solver.backend = "ipm";
    options_.threads = 2;
    options_.warm_chaining = true;
  }

  int verdicts_per_request() const override { return static_cast<int>(grid_.size()); }
  std::size_t threads() const override { return options_.threads; }

  Outcome request(Tracer* tracer) override {
    sweep::CertificationQuery query = query_;
    if (tracer != nullptr) {
      query.build = [tracer, build = query_.build](const pll::Params& params) {
        const Scope span(tracer, "sos.build");
        return build(params);
      };
    }
    Scope span(tracer, "sweep.run_sweep");
    const sweep::SweepReport report = sweep::run_sweep(grid_, query, options_);
    span.stop();

    Outcome out;
    for (const sweep::PointRecord& rec : report.points) {
      ++out.attempted;
      if (!rec.skipped && rec.certified == (rec.values[0] > 0.0)) ++out.correct;
    }
    if (tracer != nullptr) {
      ++traced_;
      sums_["sweep.warm_hit_rate"] += report.warm_hit_rate();
      sums_["sweep.cold_restarts"] += static_cast<double>(report.cold_restarts);
      full_lowerings_ += static_cast<double>(report.full_lowerings);
      updates_ += static_cast<double>(report.updates);
      last_certified_.clear();
      for (const sweep::PointRecord& rec : report.points) {
        point_seconds_.push_back(rec.solve_seconds);
        last_certified_.push_back(rec.certified);
      }
    }
    return out;
  }

  bool finish_trace(Tracer& tracer, Metrics& out) override {
    if (traced_ == 0) return false;
    tracer.begin_request();
    const bool ok = replay(tracer);
    emit_means(sums_, traced_, out);
    emit_means(replay_sums_, 1.0, out);
    replayed_.emit(out, 1.0);
    const double lowerings = full_lowerings_ + updates_;
    out["sdp.lowering.update_ratio"] = lowerings > 0 ? updates_ / lowerings : 0.0;
    out["sweep.point_p50_ms"] = 1e3 * percentile(point_seconds_, 0.50);
    out["sweep.point_p99_ms"] = 1e3 * percentile(point_seconds_, 0.99);
    return ok;
  }

 private:
  /// One pass over the grid in run_sweep's lane and serpentine order, on one
  /// thread, through the public calls the service makes inside one point:
  /// query.build, SosProgram::compile, LoweringCache::lower, the solve and
  /// sos::audit, with the same warm chain and verdict-flip cold restart.
  /// SosProgram::solve lowers again through its own cache, so the lowering
  /// spans time a second cache fed the same compiles. Verdicts must match
  /// the last traced request point for point.
  bool replay(Tracer& tracer) {
    const std::size_t row_len = grid_.axes()[0].count;
    const std::size_t rows = grid_.size() / row_len;
    const std::size_t lanes = std::max<std::size_t>(1, std::min(options_.threads, rows));
    bool ok = last_certified_.size() == grid_.size();
    for (std::size_t lane = 0; ok && lane < lanes; ++lane) {
      const std::unique_ptr<sdp::SolverBackend> backend = sdp::make_solver(options_.solver);
      sdp::LoweringCache timed_cache, solve_cache;
      sdp::WarmStart chain;
      for (std::size_t rr = lane * rows / lanes; rr < (lane + 1) * rows / lanes; ++rr) {
        const bool reverse = ((rr - lane * rows / lanes) % 2) == 1;
        for (std::size_t s = 0; s < row_len; ++s) {
          const std::size_t index = rr * row_len + (reverse ? row_len - 1 - s : s);
          Scope build_span(&tracer, "sos.build");
          const sos::SosProgram program = query_.build(grid_.params(index));
          replay_sums_["sos.build_s"] += build_span.stop();

          Scope compile_span(&tracer, "sos.compile");
          sdp::Problem problem = program.compile();
          replay_sums_["sos.compile_s"] += compile_span.stop();

          const Clock::time_point lower_start = Clock::now();
          const sdp::Lowering& lowering = timed_cache.lower(std::move(problem), {});
          const Clock::time_point lower_end = Clock::now();
          const bool update = !lowering.passes.empty() && lowering.passes.front().name == "update";
          tracer.record(update ? "sdp.lower_update" : "sdp.lower_full", lower_start, lower_end);
          replay_sums_[update ? "sdp.lower_update_s" : "sdp.lower_full_s"] +=
              seconds_between(lower_start, lower_end);
          add_passes(replay_sums_, lowering.passes);

          auto solve = [&](const sdp::WarmStart* warm) {
            sdp::SolveContext context;
            context.warm_start = warm;
            const Scope span(&tracer, "sos.solve");
            sos::SolveResult result = program.solve(*backend, context, solve_cache);
            replayed_.add(result.sdp);
            return result;
          };
          auto audited = [&](const sos::SolveResult& result) {
            if (sos::solve_hard_failed(result)) return false;
            Scope span(&tracer, "sos.audit");
            const bool pass = sos::audit(program, result).ok;
            replay_sums_["sos.audit_s"] += span.stop();
            return pass;
          };
          const bool warm = !chain.empty();
          sos::SolveResult solved = solve(warm ? &chain : nullptr);
          bool certified = audited(solved);
          if (warm && !certified && solved.status != sdp::SolveStatus::Interrupted) {
            solved = solve(nullptr);
            certified = audited(solved);
          }
          chain = certified ? std::move(solved.warm) : sdp::WarmStart{};
          ok = ok && certified == last_certified_[index];
        }
      }
    }
    return ok;
  }

  sweep::Grid grid_;
  sweep::CertificationQuery query_;
  sweep::SweepOptions options_;
  int traced_ = 0;
  Metrics sums_;          // per traced request
  Metrics replay_sums_;   // the one replayed request
  SdpTotals replayed_;
  double full_lowerings_ = 0, updates_ = 0;
  std::vector<double> point_seconds_;
  std::vector<bool> last_certified_;
};

// ------------------------------------------------------------- clock_tree ---

class ClockTree final : public Workload {
 public:
  explicit ClockTree(double reference_objective) : reference_(reference_objective) {
    tree_.loops = 192;
    tree_.cluster = 24;
    tree_.neighbor_coupling = 0.05;
    tree_.neighbor_hops = tree_.cluster - 1;
    lowering_.sparsity = sdp::SparsityOptions::Chordal;
    lowering_.chordal.min_block_size = 4;
    sdp::SolverConfig config;
    config.backend = "admm";
    config.tolerance = 1e-5;
    config.threads = 1;
    backend_ = sdp::make_solver(config);
  }

  int verdicts_per_request() const override { return 1; }
  std::size_t threads() const override { return 1; }

  Outcome request(Tracer* tracer) override {
    Scope model_span(tracer, "pll.make_clock_tree");
    const pll::ClockTreeModel model =
        pll::make_clock_tree(pll::Params::paper_third_order(), tree_);
    model_span.stop();
    Scope sdp_span(tracer, "pll.clock_tree_coupling_sdp");
    sdp::Problem problem = pll::clock_tree_coupling_sdp(model.constants, tree_);
    sdp_span.stop();

    Scope lower_span(tracer, "sdp.lower");
    const sdp::Lowering lowering = sdp::lower(std::move(problem), lowering_);
    const double lower_seconds = lower_span.stop();
    sdp::SolveContext context;
    Scope solve_span(tracer, "sdp.solve");
    sdp::Solution solution = backend_->solve(lowering.problem, context);
    solve_span.stop();
    Scope recover_span(tracer, "sdp.recover");
    const sdp::Solution recovered = sdp::recover(std::move(solution), lowering);
    recover_span.stop();

    objective_ = recovered.primal_objective;
    blocks_ = lowering.problem.num_blocks();
    max_block_ = 0;
    for (std::size_t j = 0; j < blocks_; ++j)
      max_block_ = std::max(max_block_, lowering.problem.block_size(j));
    Outcome out;
    out.attempted = 1;
    if (recovered.status == sdp::SolveStatus::Optimal &&
        std::fabs(recovered.primal_objective - reference_) <= 1e-3 * std::fabs(reference_))
      out.correct = 1;
    if (tracer != nullptr) {
      ++traced_;
      totals_.add(recovered);
      sums_["sdp.lower_full_s"] += lower_seconds;
      add_passes(sums_, lowering.passes);
    }
    return out;
  }

  bool finish_trace(Tracer&, Metrics& out) override {
    if (traced_ == 0) return false;
    emit_means(sums_, traced_, out);
    totals_.emit(out, traced_);
    return true;
  }

  std::string detail() const override {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "clock_tree: %zu lowered blocks (largest %zu), objective %.12g "
                  "(reference %.12g)",
                  blocks_, max_block_, objective_, reference_);
    return line;
  }

 private:
  pll::ClockTreeOptions tree_;
  sdp::LoweringOptions lowering_;
  std::unique_ptr<sdp::SolverBackend> backend_;
  double reference_;
  double objective_ = std::numeric_limits<double>::quiet_NaN();
  std::size_t blocks_ = 0, max_block_ = 0;
  int traced_ = 0;
  Metrics sums_;
  SdpTotals totals_;
};

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double reference_objective) {
  if (name == "table2") return std::make_unique<Table2>();
  if (name == "sweep") return std::make_unique<Sweep>(seed);
  if (name == "clock_tree") return std::make_unique<ClockTree>(reference_objective);
  return nullptr;
}

}  // namespace perfbench
