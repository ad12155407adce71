#include "sdp/problem.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace soslock::sdp {

SparseSym SparseSym::diagonal(std::size_t n, double v) {
  SparseSym d;
  if (v == 0.0) return d;
  d.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) d.entries.push_back({i, i, v});
  return d;
}

void SparseSym::add(std::size_t r, std::size_t c, double v) {
  if (v == 0.0) return;
  if (r > c) std::swap(r, c);
  // Merge with an existing entry if present (linear scan: rows are tiny).
  for (Triplet& t : entries) {
    if (t.r == r && t.c == c) {
      t.v += v;
      return;
    }
  }
  entries.push_back({r, c, v});
}

double SparseSym::dot(const linalg::Matrix& s) const {
  double acc = 0.0;
  for (const Triplet& t : entries) {
    acc += (t.r == t.c ? 1.0 : 2.0) * t.v * s(t.r, t.c);
  }
  return acc;
}

void SparseSym::add_to(linalg::Matrix& out, double scale) const {
  for (const Triplet& t : entries) {
    out(t.r, t.c) += scale * t.v;
    if (t.r != t.c) out(t.c, t.r) += scale * t.v;
  }
}

void SparseSym::times_dense(const linalg::Matrix& x, linalg::Matrix& out) const {
  assert(out.rows() == x.rows() && out.cols() == x.cols());
  out.fill(0.0);
  const std::size_t n = x.cols();
  for (const Triplet& t : entries) {
    const double* xr = x.row_ptr(t.c);
    double* outr = out.row_ptr(t.r);
    for (std::size_t k = 0; k < n; ++k) outr[k] += t.v * xr[k];
    if (t.r != t.c) {
      const double* xr2 = x.row_ptr(t.r);
      double* outr2 = out.row_ptr(t.c);
      for (std::size_t k = 0; k < n; ++k) outr2[k] += t.v * xr2[k];
    }
  }
}

double SparseSym::dot(const SparseSym& s) const {
  // Both triplet lists are tiny (SOS rows and objectives touch few entries).
  double acc = 0.0;
  for (const Triplet& a : entries) {
    for (const Triplet& b : s.entries) {
      if (a.r == b.r && a.c == b.c) acc += a.v * b.v * (a.r == a.c ? 1.0 : 2.0);
    }
  }
  return acc;
}

double SparseSym::frobenius_norm() const {
  double acc = 0.0;
  for (const Triplet& t : entries) acc += (t.r == t.c ? 1.0 : 2.0) * t.v * t.v;
  return std::sqrt(acc);
}

double SparseSym::max_abs() const {
  double m = 0.0;
  for (const Triplet& t : entries) m = std::max(m, std::fabs(t.v));
  return m;
}

void SparseSym::scale(double s) {
  for (Triplet& t : entries) t.v *= s;
}

std::size_t Problem::add_block(std::size_t n) {
  block_sizes_.push_back(n);
  c_.emplace_back();
  return block_sizes_.size() - 1;
}

std::size_t Problem::add_free(double obj_coeff) {
  f_.push_back(obj_coeff);
  return f_.size() - 1;
}

void Problem::set_block_objective(std::size_t block, SparseSym c) {
  assert(block < c_.size());
  c_[block] = std::move(c);
}

void Problem::set_free_objective(std::size_t var, double coeff) {
  assert(var < f_.size());
  f_[var] = coeff;
}

std::size_t Problem::add_row(Row row) {
  rows_.push_back(std::move(row));
  return rows_.size() - 1;
}

std::size_t Problem::total_psd_dim() const {
  std::size_t n = 0;
  for (std::size_t s : block_sizes_) n += s;
  return n;
}

std::string Problem::stats() const {
  std::size_t nnz = 0, max_block = 0;
  for (const Row& row : rows_)
    for (const auto& [j, a] : row.blocks) nnz += a.entries.size();
  for (std::size_t s : block_sizes_) max_block = std::max(max_block, s);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SDP: %zu rows, %zu blocks (max %zu, total dim %zu), %zu free vars, %zu nnz",
                rows_.size(), block_sizes_.size(), max_block, total_psd_dim(), f_.size(), nnz);
  return buf;
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "Optimal";
    case SolveStatus::MaxIterations: return "MaxIterations";
    case SolveStatus::PrimalInfeasible: return "PrimalInfeasible";
    case SolveStatus::DualInfeasible: return "DualInfeasible";
    case SolveStatus::NumericalProblem: return "NumericalProblem";
    case SolveStatus::Interrupted: return "Interrupted";
    case SolveStatus::Diverged: return "Diverged";
    case SolveStatus::Faulted: return "Faulted";
  }
  return "?";
}

}  // namespace soslock::sdp
