// linalg kernels timed through their public calls at the shapes the
// workloads load: the m=450 Schur complement of the pll4 advection SDP (its
// Cholesky factor, the 17-column multi-RHS solve behind M^{-1}B, and a GEMM
// of that size), the advection cone's min-eigenvalue bounds (3 blocks of
// 20, 44 of 6, 31 of 1), and an eigendecomposition with vectors at the
// clock-tree clique size. Each figure is the median of repeated calls on
// fixed inputs. GFLOP/s figures are computed from textbook flop counts, not
// measured by counters.
#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace soslock;
using linalg::Matrix;

namespace {

constexpr std::size_t kSchurRows = 450;
constexpr std::size_t kFreeColumns = 17;
/// Largest clique block of the K=192, cluster-24 clock-tree lowering.
constexpr std::size_t kCliqueSize = 25;

/// Deterministic entries in [-1, 1).
Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  std::uint64_t state = seed;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      m(r, c) = static_cast<double>(state >> 11) * 0x1.0p-52 - 1.0;
    }
  }
  return m;
}

/// Well-conditioned SPD matrix A A^T / n + I.
Matrix spd(std::size_t n, std::uint64_t seed) {
  const Matrix a = random_matrix(n, n, seed);
  Matrix s = linalg::times_transposed(a, a);
  s.scale(1.0 / static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) s(i, i) += 1.0;
  return s;
}

/// Median milliseconds per call of `fn`, over at least 5 calls and 0.1 s.
template <class Fn>
double median_ms(Fn&& fn) {
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  while (ms.size() < 5 || seconds_between(start, Clock::now()) < 0.1) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  return percentile(std::move(ms), 0.5);
}

/// Keeps a result observable so the call is not optimized away.
volatile double g_sink = 0.0;

}  // namespace

void linalg_micro(Metrics& out) {
  const double n = kSchurRows, k = kFreeColumns;
  const Matrix schur = spd(kSchurRows, 1);
  const Matrix rhs = random_matrix(kSchurRows, kFreeColumns, 2);
  const Matrix a = random_matrix(kSchurRows, kSchurRows, 3);
  const Matrix b = random_matrix(kSchurRows, kSchurRows, 4);
  const std::optional<linalg::Cholesky> factor = linalg::Cholesky::factor(schur);

  const double chol_ms = median_ms([&] {
    const std::optional<linalg::Cholesky> f = linalg::Cholesky::factor(schur);
    g_sink = f ? f->lower()(0, 0) : 0.0;
  });
  const double solve_ms = median_ms([&] { g_sink = factor->solve(rhs)(0, 0); });
  const double gemm_ms = median_ms([&] { g_sink = (a * b)(0, 0); });

  std::vector<Matrix> cone;
  for (std::size_t i = 0; i < 3; ++i) cone.push_back(spd(20, 10 + i));
  for (std::size_t i = 0; i < 44; ++i) cone.push_back(spd(6, 20 + i));
  for (std::size_t i = 0; i < 31; ++i) cone.push_back(spd(1, 70 + i));
  const double min_eig_ms = median_ms([&] {
    double lo = 0.0;
    for (const Matrix& block : cone) lo += linalg::min_eigenvalue(block);
    g_sink = lo;
  });
  const Matrix clique = spd(kCliqueSize, 5);
  const double eig_ms = median_ms([&] { g_sink = linalg::eigen_sym(clique).values[0]; });

  out["linalg.chol_factor_450_ms"] = chol_ms;
  out["linalg.chol_solve_450x17_ms"] = solve_ms;
  out["linalg.gemm_450_ms"] = gemm_ms;
  out["linalg.min_eig_blocks_ms"] = min_eig_ms;
  out["linalg.eig_vectors_clique_ms"] = eig_ms;
  out["linalg.chol_factor_450_gflops_computed"] = n * n * n / 3.0 / (chol_ms * 1e6);
  out["linalg.chol_solve_450x17_gflops_computed"] = 2.0 * n * n * k / (solve_ms * 1e6);
  out["linalg.gemm_450_gflops_computed"] = 2.0 * n * n * n / (gemm_ms * 1e6);
}

}  // namespace perfbench
