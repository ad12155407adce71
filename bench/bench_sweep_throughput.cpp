// Certification sweep throughput: the paper's third-order charge-pump design
// swept over a 5 x 4 ip x kv grid (20 design points, all inside the lockable
// region), once with warm chaining + the in-place coefficient-update pass and
// once fully cold (no warm starts, but the same per-lane lowering cache).
//
// The machine-checked gates (exit 1 on failure) are iteration counts, hit
// rates and pass provenance — not wall clock, which single-core CI cannot
// measure meaningfully:
//   1. warm-hit rate > 50% (acceptance floor; a healthy chain hits 19/20),
//   2. warm chaining takes strictly fewer total IPM iterations than solving
//      every point cold,
//   3. zero recompiles after the first grid point: exactly 1 full pipeline
//      run and points-1 in-place updates (plus one update per cold re-solve),
//   4. the update pass leaves provenance: the second lower() of a
//      structurally identical compile stamps passes ["update", "equilibrate"],
//   5. kill-and-resume: the sweep is interrupted after 8 points (max_points +
//      a checkpoint file), resumed from the checkpoint, and the resumed
//      report must be verdict-identical to the uninterrupted warm sweep while
//      re-solving strictly fewer points than a cold start would.
// ctest runs it under the `gate` label.
#include <cstddef>
#include <cstdio>

#include "bench_common.hpp"
#include "sdp/lowering.hpp"
#include "sweep/grid.hpp"
#include "sweep/query.hpp"
#include "sweep/service.hpp"

using namespace soslock;

int main() {
  bench::thread_banner();
  bench::cpu_banner();
  const pll::Params base = pll::Params::paper_third_order();
  const sweep::Grid grid(base, {
      {sweep::Axis::Ip, 5, 300e-6, 700e-6, 5e-6},
      {sweep::Axis::Kv, 4, 120.0, 280.0, 2.0},
  });
  const sweep::CertificationQuery query = sweep::lyapunov_query();
  const std::size_t points = grid.size();
  std::printf("=== certification sweep throughput: %zu-point ip x kv grid ===\n\n", points);

  sweep::SweepOptions warm_options;
  warm_options.solver.backend = "ipm";
  warm_options.threads = 1;  // one lane: the chain covers the whole grid
  sweep::SweepOptions cold_options = warm_options;
  cold_options.warm_chaining = false;
  cold_options.solver.warm_start = false;

  std::printf("warm-chained sweep (in-place updates + neighbor warm starts):\n");
  const sweep::SweepReport warm = sweep::run_sweep(grid, query, warm_options);
  std::printf("%s\n\n", warm.summary().c_str());

  std::printf("cold sweep (every point from scratch):\n");
  const sweep::SweepReport cold = sweep::run_sweep(grid, query, cold_options);
  std::printf("%s\n\n", cold.summary().c_str());

  // Direct provenance check of the update pass: two structurally identical
  // compiles through one LoweringCache — the second must be the in-place
  // path, stamped as the "update" pass, not a re-run of the full pipeline.
  sdp::LoweringCache cache;
  const sdp::LoweringOptions lopt;
  cache.lower(query.build(grid.params(0)).compile(), lopt);
  const sdp::Lowering& second = cache.lower(query.build(grid.params(1)).compile(), lopt);
  const bool update_provenance = !second.passes.empty() &&
                                 second.passes.front().name == "update" &&
                                 cache.full_lowerings() == 1 && cache.updates() == 1;

  int failures = 0;
  auto gate = [&failures](bool ok, const char* what) {
    std::printf("  gate %-58s %s\n", what, ok ? "PASS" : "FAIL");
    if (!ok) ++failures;
  };
  std::printf("gates:\n");
  gate(warm.certified == points, "every grid point certifies");
  gate(warm.warm_hit_rate() > 0.5, "warm-hit rate > 50%");
  gate(warm.total_iterations < cold.total_iterations,
       "warm chaining beats cold on total IPM iterations");
  gate(warm.full_lowerings == 1 &&
           warm.updates == points - 1 + warm.cold_restarts,
       "zero recompiles after the first grid point");
  gate(update_provenance, "update pass stamps [\"update\", ...] provenance");

  // --- kill-and-resume: interrupt the warm sweep deterministically after
  // kKillAfter points with a checkpoint on disk, then resume from it.
  constexpr std::size_t kKillAfter = 8;
  const char* ckpt = "bench_sweep_checkpoint.txt";
  sweep::SweepOptions kill_options = warm_options;
  kill_options.checkpoint_path = ckpt;
  kill_options.max_points = kKillAfter;
  std::printf("\nkilled sweep (checkpoint after every point, stop at %zu):\n",
              kKillAfter);
  const sweep::SweepReport killed = sweep::run_sweep(grid, query, kill_options);
  std::printf("%s\n\n", killed.summary().c_str());

  sweep::SweepOptions resume_options = warm_options;
  resume_options.resume_from = ckpt;
  std::printf("resumed sweep (from %s):\n", ckpt);
  const sweep::SweepReport resumed = sweep::run_sweep(grid, query, resume_options);
  std::printf("%s\n\n", resumed.summary().c_str());

  bool verdicts_identical = resumed.points.size() == warm.points.size();
  for (std::size_t i = 0; verdicts_identical && i < warm.points.size(); ++i) {
    verdicts_identical = resumed.points[i].certified == warm.points[i].certified &&
                         !resumed.points[i].skipped;
  }
  const std::size_t resolved = points - resumed.resumed_points;

  std::printf("resume gates:\n");
  gate(killed.interrupted && killed.skipped == points - kKillAfter,
       "kill run stops after the checkpointed prefix");
  gate(verdicts_identical, "resumed report is verdict-identical to uninterrupted");
  gate(resumed.resumed_points == kKillAfter && resolved < points,
       "resume re-solves strictly fewer points than cold");
  gate(resumed.total_iterations <= warm.total_iterations,
       "resume spends no more iterations than the uninterrupted sweep");
  std::printf("\n");

  std::remove(ckpt);
  return failures == 0 ? 0 : 1;
}
