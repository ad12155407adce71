// The IPM's allocation contract: every per-block matrix and per-row vector
// of a Newton step lives in per-solve storage, so after the first step a
// solve allocates nothing. This binary replaces the global operator
// new/delete (plain, array, nothrow, sized and aligned forms — Matrix
// storage goes through the aligned ones) with counting versions and
// asserts that no allocation happens between the second on_iteration
// callback and the last one of:
//   * a cold solve of the sweep's Lyapunov query at the paper's design;
//   * the same query at an ip < 0 design, which stalls and binds the step
//     lengths through the failing-screen eigenvalue path;
//   * a warm-started solve of a problem with 1x1, mid-size and >= 20
//     blocks, free variables and a chordal-decomposed cone (overlap rows
//     block-eliminated per Schur block).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "linalg/matrix.hpp"
#include "pll/params.hpp"
#include "sdp/ipm.hpp"
#include "sdp/lowering.hpp"
#include "sdp/problem.hpp"
#include "sdp/solver.hpp"
#include "sos/program.hpp"
#include "sweep/query.hpp"
#include "util/log.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace soslock {
namespace {

using linalg::Matrix;
using sdp::Problem;
using sdp::SolveStatus;

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// What one solve allocated after its first Newton step: the count between
/// the second on_iteration callback and the last one.
struct StepAllocations {
  int callbacks = 0;
  long at_second = 0;
  long after_first_step = 0;
  SolveStatus status = SolveStatus::NumericalProblem;
};

/// Count into `out` from ctx's iteration callbacks (set before the solve,
/// so the std::function's own storage is not counted).
void watch(sdp::SolveContext& ctx, StepAllocations& out) {
  ctx.on_iteration = [&out](const sdp::IterationInfo&) {
    const long now = allocations();
    if (out.callbacks == 1) out.at_second = now;
    if (out.callbacks >= 1) out.after_first_step = now - out.at_second;
    ++out.callbacks;
  };
}

StepAllocations solve_sos(const sos::SosProgram& program) {
  StepAllocations out;
  sdp::IpmSolver ipm;
  sdp::SolveContext ctx;
  watch(ctx, out);
  out.status = program.solve(ipm, ctx).status;
  return out;
}

StepAllocations solve_sdp(const Problem& problem, const sdp::WarmStart* warm) {
  StepAllocations out;
  sdp::SolveContext ctx;
  ctx.warm_start = warm;
  watch(ctx, out);
  out.status = sdp::IpmSolver().solve(problem, ctx).status;
  return out;
}

class IpmAllocations : public ::testing::Test {
 protected:
  // Log lines allocate their text; the contract is about the solver.
  void SetUp() override {
    saved_ = util::log_level();
    util::set_log_level(util::LogLevel::Error);
  }
  void TearDown() override { util::set_log_level(saved_); }

 private:
  util::LogLevel saved_ = util::LogLevel::Warn;
};

TEST_F(IpmAllocations, CounterSeesMatrixAndVectorStorage) {
  // Without this the zero counts below would also pass if the replacement
  // operators were bypassed.
  const long before = allocations();
  {
    const Matrix m(4, 4);
    const std::vector<double> v(16);
    EXPECT_EQ(m.rows() + v.size(), 20u);
  }
  EXPECT_EQ(allocations() - before, 2);
}

TEST_F(IpmAllocations, SweepQueryAtThePaperDesign) {
  const sos::SosProgram program =
      sweep::lyapunov_query().build(pll::Params::paper_third_order());
  const StepAllocations a = solve_sos(program);
  EXPECT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_GE(a.callbacks, 3);
  EXPECT_EQ(a.after_first_step, 0) << "over " << a.callbacks - 1 << " steps";
}

TEST_F(IpmAllocations, SweepQueryAtNegativePumpCurrentStalls) {
  pll::Params params = pll::Params::paper_third_order();
  params.ip = {-params.ip.hi, -params.ip.lo};
  const sos::SosProgram program = sweep::lyapunov_query().build(params);
  const StepAllocations a = solve_sos(program);
  EXPECT_NE(a.status, SolveStatus::Optimal);
  ASSERT_GE(a.callbacks, 10);
  EXPECT_EQ(a.after_first_step, 0) << "over " << a.callbacks - 1 << " steps";
}

/// A feasible min-trace SDP with every block shape the IPM keeps storage
/// for: a banded 30x30 block (decomposed chordally into clique blocks tied
/// by overlap couplings), a dense 12x12 block, 22 blocks of 3x3, one 1x1
/// block, and two free variables. b = A(X*) + B w* for PD X*, scaled by
/// `rhs_scale` so two values give structurally identical problems.
Problem mixed_blocks_sdp(double rhs_scale) {
  Problem p;
  std::vector<std::size_t> sizes = {30, 12, 1};
  for (int k = 0; k < 22; ++k) sizes.push_back(3);
  std::vector<Matrix> xstar;
  for (const std::size_t n : sizes) {
    const std::size_t b = p.add_block(n);
    p.set_block_objective(b, sdp::SparseSym::diagonal(n, 1.0));
    Matrix x(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      x(i, i) = 2.0 + 0.1 * static_cast<double>(i % 3);
      if (i + 1 < n) x(i, i + 1) = x(i + 1, i) = 0.5;
    }
    xstar.push_back(std::move(x));
  }
  p.add_free(0.0);
  p.add_free(0.0);
  const double wstar[2] = {0.7, -1.3};
  auto add = [&](sdp::Row row) {
    double b = 0.0;
    for (const auto& [j, a] : row.blocks) b += a.dot(xstar[j]);
    for (const auto& [v, c] : row.free_coeffs) b += c * wstar[v];
    row.rhs = rhs_scale * b;
    p.add_row(std::move(row));
  };
  for (std::size_t i = 0; i + 1 < 30; ++i) {  // the band
    sdp::Row row;
    row.blocks[0].add(i, i, 1.0);
    row.blocks[0].add(i, i + 1, 0.5 + 0.1 * static_cast<double>(i % 2));
    row.blocks[0].add(i + 1, i + 1, -0.3);
    if (i % 7 == 0) row.free_coeffs[0] = 0.4;
    add(std::move(row));
  }
  for (std::size_t i = 0; i < 12; ++i) {  // the mid-size block, dense pattern
    sdp::Row row;
    for (std::size_t c = i; c < 12; ++c) row.blocks[1].add(i, c, 1.0 / (1.0 + c - i));
    add(std::move(row));
  }
  {  // the 1x1 block, tied to the mid-size one and a free variable
    sdp::Row row;
    row.blocks[2].add(0, 0, 1.0);
    row.blocks[1].add(0, 0, 0.5);
    row.free_coeffs[1] = 1.0;
    add(std::move(row));
  }
  for (std::size_t k = 3; k < sizes.size(); ++k) {  // the 3x3 blocks, chained
    sdp::Row diag;
    diag.blocks[k].add(0, 0, 1.0);
    diag.blocks[k].add(1, 2, 0.3);
    if (k + 1 < sizes.size()) diag.blocks[k + 1].add(2, 2, 0.2);
    add(std::move(diag));
    sdp::Row off;
    off.blocks[k].add(1, 1, 1.0);
    off.blocks[k].add(0, 1, -0.1);
    off.blocks[k].add(2, 2, 0.25);
    off.free_coeffs[k % 2] = 0.5;
    add(std::move(off));
  }
  return p;
}

TEST_F(IpmAllocations, WarmStartedMixedBlocksWithChordalCone) {
  sdp::LoweringOptions options;
  options.sparsity = sdp::SparsityOptions::Chordal;
  options.chordal.min_block_size = 8;
  const sdp::Lowering source = sdp::lower(mixed_blocks_sdp(1.0), options);
  const sdp::Lowering target = sdp::lower(mixed_blocks_sdp(1.15), options);
  const Problem& p = target.problem;
  ASSERT_TRUE(target.decomposed());
  ASSERT_GT(p.num_overlaps(), 0u);
  ASSERT_GE(p.num_blocks(), 20u);
  ASSERT_EQ(p.num_free(), 2u);
  std::size_t ones = 0, largest = 0;
  for (const std::size_t n : p.block_sizes()) {
    ones += n == 1 ? 1 : 0;
    largest = std::max(largest, n);
  }
  EXPECT_GE(ones, 1u);
  EXPECT_EQ(largest, 12u);

  const sdp::Solution cold = sdp::IpmSolver().solve(source.problem);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  const sdp::WarmStart warm = sdp::make_warm_start(cold, target.lowered_fingerprint);
  ASSERT_TRUE(warm.fits(p));
  const StepAllocations a = solve_sdp(p, &warm);
  EXPECT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_GE(a.callbacks, 3);
  EXPECT_EQ(a.after_first_step, 0) << "over " << a.callbacks - 1 << " steps";
}

}  // namespace
}  // namespace soslock
