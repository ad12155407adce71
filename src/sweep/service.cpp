#include "sweep/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "sdp/lowering.hpp"
#include "sos/checker.hpp"
#include "sweep/checkpoint.hpp"
#include "util/ascii_plot.hpp"
#include "util/log.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace soslock::sweep {

double SweepReport::warm_hit_rate() const {
  const std::size_t solved = certified + uncertified;
  return solved == 0 ? 0.0 : static_cast<double>(warm_hits) / static_cast<double>(solved);
}

double SweepReport::certificates_per_second() const {
  return seconds <= 0.0 ? 0.0 : static_cast<double>(certified) / seconds;
}

std::string SweepReport::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "sweep: %zu point(s): %zu certified, %zu uncertified, %zu skipped%s\n"
                "  %.2fs wall, %.2f certificates/s, %d total iterations\n"
                "  warm chaining: %zu warm hit(s) (%.0f%%), %zu cold restart(s)\n"
                "  lowering: %zu full pipeline run(s), %zu in-place update(s)\n"
                "  structure cache: +%zu hit(s), +%zu miss(es), +%zu eviction(s), "
                "%zu/%zu entries",
                points.size(), certified, uncertified, skipped,
                interrupted ? " (interrupted)" : "", seconds, certificates_per_second(),
                total_iterations, warm_hits, 100.0 * warm_hit_rate(), cold_restarts,
                full_lowerings, updates, structure_cache.hits, structure_cache.misses,
                structure_cache.evictions, structure_cache.entries,
                structure_cache.capacity);
  return buf;
}

util::CsvWriter SweepReport::csv(const Grid& grid) const {
  std::vector<std::string> header = {"index"};
  for (const AxisSpec& spec : grid.axes()) header.push_back(to_string(spec.axis));
  for (const char* col : {"certified", "skipped", "status", "iterations", "warm_hit",
                          "cold_restart", "solve_seconds", "objective", "audit_residual"})
    header.push_back(col);
  util::CsvWriter csv(std::move(header));
  for (const PointRecord& rec : points) {
    std::vector<std::string> row = {std::to_string(rec.index)};
    for (const double v : rec.values) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      row.push_back(buf);
    }
    row.push_back(rec.certified ? "1" : "0");
    row.push_back(rec.skipped ? "1" : "0");
    row.push_back(rec.skipped ? "skipped" : sdp::to_string(rec.status));
    row.push_back(std::to_string(rec.iterations));
    row.push_back(rec.warm_hit ? "1" : "0");
    row.push_back(rec.cold_restart ? "1" : "0");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", rec.solve_seconds);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.9g", rec.objective);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3g", rec.audit_residual);
    row.push_back(buf);
    csv.add_row(row);
  }
  return csv;
}

std::string SweepReport::stability_map(const Grid& grid) const {
  if (grid.dims() == 0 || points.empty()) return "(no swept axes)\n";
  // Project on the first two axes (a 1-D sweep plots along y = 0).
  auto extent = [&](std::size_t d) {
    double lo = grid.axis_value(d, 0);
    double hi = grid.axis_value(d, grid.axes()[d].count - 1);
    if (lo > hi) std::swap(lo, hi);
    const double pad = std::max(1e-12, 0.05 * std::max(hi - lo, std::fabs(hi)));
    return std::pair<double, double>{lo - pad, hi + pad};
  };
  const auto [xmin, xmax] = extent(0);
  const auto [ymin, ymax] = grid.dims() > 1 ? extent(1) : std::pair<double, double>{-1.0, 1.0};
  util::AsciiPlot plot(xmin, xmax, ymin, ymax);
  util::Series ok{"certified", '#', {}}, bad{"uncertified", '.', {}}, skip{"skipped", '?', {}};
  for (const PointRecord& rec : points) {
    const double x = rec.values.empty() ? 0.0 : rec.values[0];
    const double y = rec.values.size() > 1 ? rec.values[1] : 0.0;
    (rec.skipped ? skip : rec.certified ? ok : bad).points.push_back({x, y});
  }
  plot.add(ok);
  plot.add(bad);
  plot.add(skip);
  return plot.str("stability map", to_string(grid.axes()[0].axis),
                  grid.dims() > 1 ? to_string(grid.axes()[1].axis) : "");
}

namespace {

/// Per-lane tallies, merged after the fan-out joins.
struct LaneStats {
  std::size_t full_lowerings = 0;
  std::size_t updates = 0;
  bool interrupted = false;
};

}  // namespace

SweepReport run_sweep(const Grid& grid, const CertificationQuery& query,
                      const SweepOptions& options) {
  SweepReport report;
  const std::size_t total = grid.size();
  report.points.resize(total);
  if (total == 0) return report;

  const util::Timer request_timer;
  const sdp::StructureCacheTelemetry cache_before = sdp::StructureCache::global().telemetry();

  // Axis-0 rows are the warm-chaining direction; lanes take contiguous row
  // chunks and walk them serpentine, so consecutive solves within a lane are
  // always grid neighbors.
  const std::size_t row_len = grid.dims() == 0 ? 1 : grid.axes()[0].count;
  const std::size_t rows = total / row_len;
  const util::ThreadPool pool(options.threads);
  const std::size_t lanes = std::max<std::size_t>(1, std::min(pool.threads(), rows));
  const sdp::SolverConfig lane_config = sdp::share_threads(options.solver, lanes);
  std::vector<LaneStats> lane_stats(lanes);
  std::atomic<bool> out_of_budget{false};

  // Checkpoint/resume state. Everything lives under one mutex — the shared
  // lane chains, the completed bitmap, and the file rewrites; checkpointing
  // is rare and cheap relative to a solve, and the single lock is what makes
  // the writer's cross-lane record reads well-ordered under TSan.
  SweepCheckpoint resume;
  if (!options.resume_from.empty()) {
    resume = load_checkpoint(options.resume_from);
    if (!resume.empty() && resume.grid_points != total) {
      util::log_info("sweep: checkpoint covers ", resume.grid_points,
                     " point(s), grid has ", total, "; running cold");
      resume = SweepCheckpoint{};
    } else if (resume.lanes != lanes) {
      // Records stay valid (they are grid-indexed), but the chains belong to
      // a different partition of the grid and cannot be replayed.
      resume.lane_chains.assign(lanes, sdp::WarmStart{});
    }
  }
  std::vector<const PointRecord*> resumed_at(total, nullptr);
  for (const PointRecord& rec : resume.completed) resumed_at[rec.index] = &rec;

  const bool checkpointing = !options.checkpoint_path.empty();
  util::Mutex ckpt_mutex;
  std::vector<char> completed(total, 0);
  std::vector<sdp::WarmStart> lane_chains(resume.lane_chains);
  lane_chains.resize(lanes);
  std::atomic<std::size_t> solved_points{0};
  for (const PointRecord& rec : resume.completed) completed[rec.index] = 1;
  auto write_checkpoint_locked = [&] {
    SweepCheckpoint cp;
    cp.grid_points = total;
    cp.lanes = lanes;
    cp.lane_chains = lane_chains;
    for (std::size_t i = 0; i < total; ++i) {
      if (completed[i] != 0) cp.completed.push_back(report.points[i]);
    }
    save_checkpoint(options.checkpoint_path, cp);
  };

  auto run_lane = [&](std::size_t lane) {
    const std::size_t row_begin = lane * rows / lanes;
    const std::size_t row_end = (lane + 1) * rows / lanes;
    const std::unique_ptr<sdp::SolverBackend> backend = sdp::make_solver(lane_config);
    sdp::LoweringCache cache;
    sdp::WarmStart chain;  // last certified point's base-space blob
    {
      const util::MutexLock lock(ckpt_mutex);
      chain = lane_chains[lane];  // replay the checkpointed chain, if any
    }

    for (std::size_t rr = row_begin; rr < row_end; ++rr) {
      const bool reverse = ((rr - row_begin) % 2) == 1;  // serpentine
      for (std::size_t s = 0; s < row_len; ++s) {
        const std::size_t col = reverse ? row_len - 1 - s : s;
        const std::size_t index = rr * row_len + col;
        PointRecord& rec = report.points[index];
        rec.index = index;
        rec.coords = grid.coords(index);
        rec.values.reserve(grid.dims());
        for (std::size_t d = 0; d < grid.dims(); ++d)
          rec.values.push_back(grid.axis_value(d, rec.coords[d]));

        if (const PointRecord* prev = resumed_at[index]; prev != nullptr) {
          // Restored verbatim from the checkpoint: verdict and per-point
          // telemetry are those of the original solve; only the grid-derived
          // coords/values above are recomputed.
          rec.certified = prev->certified;
          rec.status = prev->status;
          rec.iterations = prev->iterations;
          rec.solve_seconds = prev->solve_seconds;
          rec.warm_hit = prev->warm_hit;
          rec.cold_restart = prev->cold_restart;
          rec.audit_residual = prev->audit_residual;
          rec.objective = prev->objective;
          rec.resumed = true;
          continue;
        }

        const bool cancelled = options.cancel != nullptr &&
                               options.cancel->load(std::memory_order_relaxed);
        if (cancelled || out_of_budget.load(std::memory_order_relaxed)) {
          rec.skipped = true;
          lane_stats[lane].interrupted = true;
          continue;
        }
        if (options.max_points > 0 &&
            solved_points.load(std::memory_order_relaxed) >= options.max_points) {
          // Deterministic interruption: the kill half of the checkpoint
          // kill-and-resume gate.
          rec.skipped = true;
          lane_stats[lane].interrupted = true;
          continue;
        }
        double remaining = 0.0;
        if (options.time_budget_seconds > 0.0) {
          remaining = options.time_budget_seconds - request_timer.seconds();
          if (remaining <= 0.0) {
            out_of_budget.store(true, std::memory_order_relaxed);
            rec.skipped = true;
            lane_stats[lane].interrupted = true;
            continue;
          }
        }

        const util::Timer point_timer;
        const sos::SosProgram program = query.build(grid.params(index));
        auto solve_once = [&](const sdp::WarmStart* warm) {
          sdp::SolveContext context;
          context.cancel = options.cancel;
          double budget = options.solver.time_budget_seconds;
          if (remaining > 0.0) budget = budget > 0.0 ? std::min(budget, remaining) : remaining;
          context.time_budget_seconds = budget;
          context.warm_start = warm;
          return program.solve(*backend, context, cache);
        };
        auto verdict = [&](const sos::SolveResult& solved, double* residual) {
          if (sos::solve_hard_failed(solved)) return false;
          const sos::AuditReport audit = sos::audit(program, solved);
          *residual = audit.worst_residual;
          return audit.ok;
        };

        const bool warm_available = options.warm_chaining && options.solver.warm_start &&
                                    !chain.empty();
        sos::SolveResult solved = solve_once(warm_available ? &chain : nullptr);
        rec.iterations = solved.sdp.iterations;
        bool certified = verdict(solved, &rec.audit_residual);
        // Verdict-boundary guard: a chained certificate that fails where its
        // donor succeeded may be a genuine infeasibility *or* a poisoned
        // start across the feasibility boundary — only a cold solve can tell
        // them apart. (An Interrupted iterate is budget noise, not a
        // boundary; it stays as-is.)
        if (warm_available && !certified &&
            solved.status != sdp::SolveStatus::Interrupted &&
            !out_of_budget.load(std::memory_order_relaxed)) {
          sos::SolveResult cold = solve_once(nullptr);
          rec.iterations += cold.sdp.iterations;
          rec.cold_restart = true;
          solved = std::move(cold);
          certified = verdict(solved, &rec.audit_residual);
        }
        rec.warm_hit = warm_available && !rec.cold_restart;
        rec.certified = certified;
        rec.status = solved.status;
        rec.objective = solved.objective;
        rec.solve_seconds = point_timer.seconds();
        if (solved.status == sdp::SolveStatus::Interrupted)
          lane_stats[lane].interrupted = true;
        // Chain maintenance: only certified points donate; an uncertified
        // point breaks the chain so the next neighbor starts cold rather
        // than from the far side of a verdict boundary.
        if (certified && !solved.warm.empty()) {
          chain = std::move(solved.warm);
        } else {
          chain = sdp::WarmStart{};
        }
        solved_points.fetch_add(1, std::memory_order_relaxed);
        if (checkpointing) {
          const util::MutexLock lock(ckpt_mutex);
          lane_chains[lane] = chain;
          completed[index] = 1;
          write_checkpoint_locked();
        }
      }
    }
    lane_stats[lane].full_lowerings = cache.full_lowerings();
    lane_stats[lane].updates = cache.updates();
  };
  pool.run_all(lanes, run_lane);
  if (checkpointing) {
    const util::MutexLock lock(ckpt_mutex);
    write_checkpoint_locked();
  }

  for (const LaneStats& stats : lane_stats) {
    report.full_lowerings += stats.full_lowerings;
    report.updates += stats.updates;
    report.interrupted = report.interrupted || stats.interrupted;
  }
  for (const PointRecord& rec : report.points) {
    if (rec.skipped) {
      ++report.skipped;
      continue;
    }
    if (rec.certified) {
      ++report.certified;
    } else {
      ++report.uncertified;
    }
    report.warm_hits += rec.warm_hit ? 1 : 0;
    report.cold_restarts += rec.cold_restart ? 1 : 0;
    report.resumed_points += rec.resumed ? 1 : 0;
    report.total_iterations += rec.iterations;
  }
  report.seconds = request_timer.seconds();

  const sdp::StructureCacheTelemetry cache_after = sdp::StructureCache::global().telemetry();
  report.structure_cache.hits = cache_after.hits - cache_before.hits;
  report.structure_cache.misses = cache_after.misses - cache_before.misses;
  report.structure_cache.evictions = cache_after.evictions - cache_before.evictions;
  report.structure_cache.entries = cache_after.entries;
  report.structure_cache.capacity = cache_after.capacity;

  util::log_info("sweep[", query.name, "]: ", report.certified, "/", total, " certified in ",
                 report.seconds, "s (", report.updates, " recompile-free update(s))");
  return report;
}

}  // namespace soslock::sweep
