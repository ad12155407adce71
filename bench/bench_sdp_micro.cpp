// Micro-benchmarks of the SDP solver hot paths:
//
//  * IPM scaling with block size / constraint count, and the value of the
//    Mehrotra predictor-corrector (informational).
//  * IPM Schur assembly, fast sparse-panel upper-triangle path vs the
//    pre-overhaul reference (IpmOptions::reference_schur) on a random SDP
//    (informational here; the pump-vertex model gate lives in
//    bench_table2_timing).
//
// Speedups are measured per iteration from the backends' per-phase timers
// (sdp::Solution::phase), so they are self-relative on the current machine:
// immune to absolute-speed noise between CI runners. Results are written to
// the sdp_micro section of BENCH_PR4.json, and a fast-vs-reference solve
// mismatch exits nonzero, which is what CI keys on.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "linalg/matrix.hpp"
#include "sdp/ipm.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace soslock;

namespace {

/// Random feasible min-trace SDP: b = A(X*) for a random PSD X*.
sdp::Problem random_sdp(std::size_t n, std::size_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
  const linalg::Matrix xstar = linalg::transposed_times(g, g);

  sdp::Problem p;
  const std::size_t b = p.add_block(n);
  p.set_block_objective(b, linalg::Matrix::identity(n));
  for (std::size_t i = 0; i < m; ++i) {
    sdp::Row row;
    sdp::SparseSym a;
    for (int k = 0; k < 6; ++k) {
      const std::size_t r = rng.index(n), c = rng.index(n);
      a.add(std::min(r, c), std::max(r, c), rng.uniform(-1.0, 1.0));
    }
    if (a.empty()) a.add(0, 0, 1.0);
    linalg::Matrix dense(n, n);
    a.add_to(dense);
    row.rhs = linalg::dot(dense, xstar);
    row.blocks[b] = std::move(a);
    p.add_row(std::move(row));
  }
  return p;
}

double per_iter(double seconds, int iterations) {
  return seconds / std::max(1, iterations);
}

}  // namespace

int main() {
  const std::size_t worker_threads = bench::thread_banner();
  bench::cpu_banner();
  std::printf("=== IPM scaling (informational) ===\n");
  std::printf("%-26s %10s %10s %8s\n", "", "wall", "schur/it", "iters");
  for (std::size_t n : {5u, 10u, 20u, 40u}) {
    const sdp::Problem p = random_sdp(n, 2 * n, 7);
    const util::Timer t;
    const sdp::Solution sol = sdp::IpmSolver().solve(p);
    std::printf("block n=%-17zu %9.3fs %9.2es %8d\n", n, t.seconds(),
                per_iter(sol.phase.schur, sol.iterations), sol.iterations);
  }
  for (std::size_t m : {10u, 40u, 120u}) {
    const sdp::Problem p = random_sdp(12, m, 11);
    const util::Timer t;
    const sdp::Solution sol = sdp::IpmSolver().solve(p);
    std::printf("constraints m=%-11zu %9.3fs %9.2es %8d\n", m, t.seconds(),
                per_iter(sol.phase.schur, sol.iterations), sol.iterations);
  }
  {
    sdp::IpmOptions no_pc;
    no_pc.predictor_corrector = false;
    const sdp::Problem p = random_sdp(16, 40, 13);
    const sdp::Solution with_pc = sdp::IpmSolver().solve(p);
    const sdp::Solution without = sdp::IpmSolver(no_pc).solve(p);
    std::printf("predictor-corrector: %d iters with, %d without\n", with_pc.iterations,
                without.iterations);
  }

  // --- IPM Schur assembly: sparse panels vs reference -----------------------
  std::printf("\n=== IPM Schur assembly: fast vs reference (random SDP) ===\n");
  const sdp::Problem mid = random_sdp(40, 80, 19);
  const sdp::Solution fast = sdp::IpmSolver().solve(mid);
  sdp::IpmOptions ref_opt;
  ref_opt.reference_schur = true;
  const sdp::Solution ref = sdp::IpmSolver(ref_opt).solve(mid);
  const double fast_schur = per_iter(fast.phase.schur, fast.iterations);
  const double ref_schur = per_iter(ref.phase.schur, ref.iterations);
  const double schur_speedup = ref_schur / std::max(1e-12, fast_schur);
  std::printf("%-26s %12.4es/it (%d iters, %s)\n", "fast assembly", fast_schur,
              fast.iterations, fast.backend.c_str());
  std::printf("%-26s %12.4es/it (%d iters)\n", "reference assembly", ref_schur,
              ref.iterations);
  std::printf("%-26s %12.2fx\n", "schur assembly speedup", schur_speedup);

  bench::write_bench_json("BENCH_PR4.json", "sdp_micro",
                          bench::with_kernel_fields(
                              {{"ipm_schur_per_iter_fast", fast_schur},
                               {"ipm_schur_per_iter_reference", ref_schur},
                               {"ipm_schur_speedup_random", schur_speedup},
                               {"worker_threads", static_cast<double>(worker_threads)}}),
                          // Merge (replace own section only): fresh=true
                          // made the recorded file order-dependent — running
                          // this bench after bench_table2_timing wiped the
                          // table2 section.
                          /*fresh=*/false);
  std::printf("\nwrote BENCH_PR4.json (sdp_micro)\n");

  // The solves must agree: same status, matching objectives.
  if (fast.status != ref.status ||
      std::fabs(fast.primal_objective - ref.primal_objective) >
          1e-4 * (1.0 + std::fabs(ref.primal_objective))) {
    std::printf("FAIL: fast vs reference IPM solves diverged\n");
    return 1;
  }
  return 0;
}
