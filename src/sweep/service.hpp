#pragma once
// The certification sweep service: design-space exploration over pll::Params
// grids with a recompile-free hot path. One request = one Grid × one
// CertificationQuery; the engine partitions the grid into lanes (contiguous
// strips of axis-0 rows), fans the lanes out over util::ThreadPool workers,
// and walks each lane serpentine so consecutive points are grid neighbors.
// Per lane it keeps
//   - an sdp::LoweringCache: from the second point on, the structurally
//     identical compile takes the in-place coefficient-update pass instead
//     of re-running analyze → decompose → lower (PassRecord provenance
//     ["update", "equilibrate"]; full_lowerings()/updates() are the
//     recompile telemetry the bench gate asserts on);
//   - a warm-start chain: the last *certified* point's base-space blob seeds
//     the next neighbor (homotopy continuation of the certificate along the
//     grid). Uncertified points never donate — and a warm attempt that comes
//     back uncertified while its donor certified is re-solved cold before
//     the verdict stands, so a stale certificate can never drag a feasible
//     region's boundary across the grid (PointRecord::cold_restart).
// Requests carry a wall-clock budget and a cooperative cancel flag; points
// that never ran are reported skipped, not absent.
#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "sdp/problem.hpp"
#include "sdp/solver.hpp"
#include "sdp/structure.hpp"
#include "sweep/grid.hpp"
#include "sweep/query.hpp"
#include "util/csv.hpp"

namespace soslock::sweep {

struct SweepOptions {
  /// Backend configuration for every point: solver.time_budget_seconds is
  /// the per-point solve budget (0 = none; capped by the remaining request
  /// budget either way), and solver.warm_start off disables chaining too —
  /// the A/B switch the throughput bench flips. Its thread budget is divided
  /// across the lanes. Sparsity is not set here: the query's program decides
  /// it when it is built (LyapunovQueryOptions::sparsity).
  sdp::SolverConfig solver;
  /// Sweep lanes (thread-pool workers); 0 = hardware count. Lanes are
  /// independent: each has its own backend, lowering cache and warm chain.
  std::size_t threads = 1;
  /// Wall-clock budget for the whole request; 0 = none. Points that the
  /// budget cuts off are marked skipped.
  double time_budget_seconds = 0.0;
  /// Cooperative cancellation (caller-owned, may be null): checked between
  /// points and threaded into every solve's SolveContext.
  std::atomic<bool>* cancel = nullptr;
  /// Chain warm starts along each lane (requires solver.warm_start).
  bool warm_chaining = true;
  /// Non-empty: serialize completed points + lane warm chains to this file
  /// after every completed point (atomic tmp+rename), so a killed sweep can
  /// resume.
  std::string checkpoint_path;
  /// Non-empty: load this checkpoint and skip its already-completed points,
  /// replaying the lane warm chains. A missing/corrupt/mismatched file is
  /// ignored (cold sweep) — resume can never change a verdict.
  std::string resume_from;
  /// When > 0, stop after this many solved points and mark the rest skipped
  /// (deterministic interruption — the kill half of the kill-and-resume
  /// bench gate). Resumed points do not count against the cap.
  std::size_t max_points = 0;
};

/// Per-point result and telemetry, in grid order.
struct PointRecord {
  std::size_t index = 0;
  std::vector<std::size_t> coords;  // mixed-radix grid coordinates
  std::vector<double> values;       // swept axis midpoints at this point
  bool certified = false;           // solved + independently audited
  bool skipped = false;             // budget/cancel hit before this point ran
  sdp::SolveStatus status = sdp::SolveStatus::NumericalProblem;
  int iterations = 0;               // IPM/ADMM iterations (both solves when cold_restart)
  double solve_seconds = 0.0;       // wall clock for this point (incl. audit)
  bool warm_hit = false;            // final verdict came from a chained warm solve
  bool cold_restart = false;        // warm attempt flipped verdict; re-solved cold
  bool resumed = false;             // restored from a checkpoint, not re-solved
  double audit_residual = 0.0;      // worst identity residual of the audit
  double objective = 0.0;
};

struct SweepReport {
  std::vector<PointRecord> points;  // grid order
  std::size_t certified = 0;
  std::size_t uncertified = 0;
  std::size_t skipped = 0;
  std::size_t warm_hits = 0;
  std::size_t cold_restarts = 0;
  std::size_t resumed_points = 0;   // restored from SweepOptions::resume_from
  int total_iterations = 0;
  double seconds = 0.0;             // whole request wall clock
  /// Lowering-cache telemetry summed over lanes: a healthy sweep shows
  /// full_lowerings == lanes and updates == solves - lanes (recompile-free
  /// after each lane's first point).
  std::size_t full_lowerings = 0;
  std::size_t updates = 0;
  /// Global StructureCache counter *deltas* over the request (entries and
  /// capacity are end-of-request absolutes).
  sdp::StructureCacheTelemetry structure_cache;
  bool interrupted = false;         // budget or cancel cut the request short

  double warm_hit_rate() const;            // warm_hits / solved points
  double certificates_per_second() const;  // certified / seconds
  /// One-paragraph human summary (verdict counts, throughput, cache telemetry).
  std::string summary() const;
  /// Per-point table: index, axis values, verdict, iterations, telemetry.
  util::CsvWriter csv(const Grid& grid) const;
  /// ASCII stability map over the first two axes ('#' certified,
  /// '.' uncertified, '?' skipped).
  std::string stability_map(const Grid& grid) const;
};

/// Run one sweep request to completion (or budget/cancel).
SweepReport run_sweep(const Grid& grid, const CertificationQuery& query,
                      const SweepOptions& options = {});

}  // namespace soslock::sweep
