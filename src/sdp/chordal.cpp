#include "sdp/chordal.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "linalg/eigen_sym.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace soslock::sdp {
namespace {

using linalg::Matrix;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Skip the decomposition of a block when the largest clique still covers
/// more than this fraction of it (nothing to win, overlap rows to lose).
constexpr double kMaxCliqueFraction = 0.9;

/// Moore–Penrose pseudo-inverse of a (nearly) PSD matrix via the symmetric
/// eigendecomposition; eigenvalues below a relative cutoff are treated as 0.
Matrix pinv_psd(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix out(n, n);
  if (n == 0) return out;
  const linalg::EigenSym eig = linalg::eigen_sym(a);
  double scale = 0.0;
  for (const double v : eig.values) scale = std::max(scale, std::fabs(v));
  const double cutoff = 1e-10 * std::max(1.0, scale);
  for (std::size_t k = 0; k < n; ++k) {
    if (eig.values[k] <= cutoff) continue;
    const double inv = 1.0 / eig.values[k];
    for (std::size_t r = 0; r < n; ++r) {
      const double vr = eig.vectors(r, k) * inv;
      if (vr == 0.0) continue;
      for (std::size_t c = 0; c < n; ++c) out(r, c) += vr * eig.vectors(c, k);
    }
  }
  return out;
}

/// Aggregate sparsity adjacency of block `j`: an edge wherever an
/// off-diagonal entry of C_j or of any A_ij is structurally nonzero.
util::Adjacency aggregate_adjacency(const Problem& p, std::size_t j) {
  const std::size_t n = p.block_size(j);
  util::Adjacency adj(n, std::vector<bool>(n, false));
  auto mark = [&adj](const SparseSym& a) {
    for (const Triplet& t : a.entries) {
      if (t.r == t.c) continue;
      adj[t.r][t.c] = true;
      adj[t.c][t.r] = true;
    }
  };
  mark(p.block_objective(j));
  for (const Row& row : p.rows()) {
    const auto it = row.blocks.find(j);
    if (it != row.blocks.end()) mark(it->second);
  }
  return adj;
}

/// Retarget one coefficient of the decomposed block `plan` (a row's A_ij or
/// the objective C_j) at its clique blocks: each triplet lands on its
/// canonical clique, found through `idx`, and is added to `out` under that
/// clique's converted block index.
void scatter_to_cliques(const SparseSym& a, const BlockPlan& plan,
                        const BlockEntryIndex& idx,
                        std::map<std::size_t, SparseSym>& out) {
  for (const Triplet& t : a.entries) {
    const BlockEntryIndex::Entry e = idx.find(t.r, t.c);
    out[plan.converted_block[e.clique]].add(e.r, e.c, t.v);
  }
}

}  // namespace

BlockEntryIndex index_decomposed_block(const util::CliqueForest& forest, std::size_t n) {
  BlockEntryIndex idx;
  idx.slots.resize(n);
  for (std::size_t k = 0; k < forest.cliques.size(); ++k) {
    const auto& clique = forest.cliques[k];
    for (std::size_t a = 0; a < clique.size(); ++a)
      if (clique[a] < n) idx.slots[clique[a]].push_back({k, a});
  }
  return idx;
}

std::size_t BlockEntryIndex::local(std::size_t k, std::size_t v) const {
  if (v >= slots.size()) return kNone;
  const auto it = std::lower_bound(slots[v].begin(), slots[v].end(), k,
                                   [](const Slot& s, std::size_t key) { return s.clique < key; });
  return it != slots[v].end() && it->clique == k ? it->local : kNone;
}

BlockEntryIndex::Entry BlockEntryIndex::find(std::size_t r, std::size_t c) const {
  if (r >= slots.size() || c >= slots.size()) return {};
  // Both membership lists ascend by clique: the first common clique is the
  // canonical one.
  auto a = slots[r].begin(), b = slots[c].begin();
  while (a != slots[r].end() && b != slots[c].end()) {
    if (a->clique < b->clique) {
      ++a;
    } else if (b->clique < a->clique) {
      ++b;
    } else {
      return {a->clique, a->local, b->local};
    }
  }
  return {};
}

std::size_t ChordalMap::max_clique_size() const {
  std::size_t mx = 0;
  for (const BlockPlan& plan : plans) mx = std::max(mx, plan.forest.max_clique_size());
  return mx;
}

ConversionPlan plan_decomposition(const Problem& p, const ChordalOptions& options) {
  ConversionPlan plan;
  plan.forests.resize(p.num_blocks());
  plan.split.assign(p.num_blocks(), false);
  std::size_t candidates = 0, max_clique = 0;
  for (std::size_t j = 0; j < p.num_blocks(); ++j) {
    const std::size_t n = p.block_size(j);
    if (n < options.min_block_size) continue;
    ++candidates;
    const util::Adjacency adj = aggregate_adjacency(p, j);
    // Complete patterns (every SOS-compiled Gram block: each entry pair has
    // a coefficient-matching row) have exactly one clique — skip the O(n^3)
    // elimination outright.
    std::size_t edges = 0;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = r + 1; c < n; ++c) edges += adj[r][c] ? 1 : 0;
    if (edges == n * (n - 1) / 2) continue;
    util::CliqueForest forest = util::chordal_cliques(n, adj);
    if (forest.cliques.size() <= 1 || !forest.covers(n)) continue;
    if (static_cast<double>(forest.max_clique_size()) >
        kMaxCliqueFraction * static_cast<double>(n)) {
      continue;
    }
    max_clique = std::max(max_clique, forest.max_clique_size());
    plan.forests[j] = std::move(forest);
    plan.split[j] = true;
    plan.any = true;
  }
  std::size_t splitting = 0;
  for (const bool s : plan.split) splitting += s ? 1 : 0;
  plan.detail = std::to_string(candidates) + " candidate block(s), " +
                std::to_string(splitting) + " split, max clique " + std::to_string(max_clique);
  return plan;
}

ChordalMap apply_decomposition(Problem& p, const ConversionPlan& conversion) {
  ChordalMap map;
  map.original_rows = p.num_rows();
  map.original_block_sizes = p.block_sizes();
  map.block_map.assign(p.num_blocks(), ChordalMap::kNotMapped);
  const std::vector<util::CliqueForest>& forests = conversion.forests;
  const std::vector<bool>& split = conversion.split;
  if (!conversion.any) return map;

  // Converted problem: clique blocks replace split blocks in place (order of
  // kept blocks is preserved), original rows keep their indices, overlap
  // rows follow.
  Problem conv;
  std::vector<BlockEntryIndex> indices(p.num_blocks());
  for (std::size_t j = 0; j < p.num_blocks(); ++j) {
    const std::size_t n = p.block_size(j);
    if (!split[j]) {
      map.block_map[j] = conv.add_block(n);
      conv.set_block_objective(map.block_map[j], p.block_objective(j));
      continue;
    }
    BlockPlan plan;
    plan.original_block = j;
    plan.original_size = n;
    plan.forest = forests[j];
    indices[j] = index_decomposed_block(plan.forest, n);
    for (const auto& clique : plan.forest.cliques)
      plan.converted_block.push_back(conv.add_block(clique.size()));
    std::map<std::size_t, SparseSym> clique_obj;
    scatter_to_cliques(p.block_objective(j), plan, indices[j], clique_obj);
    for (auto& [cb, c] : clique_obj) conv.set_block_objective(cb, std::move(c));
    map.plans.push_back(std::move(plan));
  }

  for (std::size_t v = 0; v < p.num_free(); ++v) conv.add_free(p.free_objective()[v]);

  for (const Row& row : p.rows()) {
    Row nr;
    nr.rhs = row.rhs;
    nr.label = row.label;
    nr.free_coeffs = row.free_coeffs;
    for (const auto& [j, a] : row.blocks) {
      if (!split[j]) {
        nr.blocks[map.block_map[j]] = a;
        continue;
      }
      const BlockEntryIndex& idx = indices[j];
      const BlockPlan* plan = nullptr;
      for (const BlockPlan& candidate : map.plans) {
        if (candidate.original_block == j) {
          plan = &candidate;
          break;
        }
      }
      scatter_to_cliques(a, *plan, idx, nr.blocks);
    }
    conv.add_row(std::move(nr));
  }

  // Overlap-consistency rows after the original ones: along each
  // clique-tree edge, tie every shared entry of the child to the parent's
  // copy with a zero-rhs equality row. The RIP guarantees tree-edge ties
  // chain every copy of an entry together.
  for (const BlockPlan& plan : map.plans) {
    const BlockEntryIndex& idx = indices[plan.original_block];
    for (std::size_t k = 0; k < plan.forest.cliques.size(); ++k) {
      const std::size_t parent = plan.forest.parent[k];
      if (parent == k) continue;
      // Separator vertices as (local in k, local in parent) pairs.
      std::vector<std::pair<std::size_t, std::size_t>> sep;
      const auto& clique = plan.forest.cliques[k];
      for (std::size_t a = 0; a < clique.size(); ++a) {
        const std::size_t pa = idx.local(parent, clique[a]);
        if (pa != kNone) sep.emplace_back(a, pa);
      }
      for (std::size_t a = 0; a < sep.size(); ++a) {
        for (std::size_t b = a; b < sep.size(); ++b) {
          // <A, X> doubles off-diagonal triplets, so 0.5 ties the entries 1:1.
          const double w = a == b ? 1.0 : 0.5;
          Row orow;
          orow.label = "chordal.ov.b" + std::to_string(plan.original_block) + ".c" +
                       std::to_string(k);
          orow.blocks[plan.converted_block[k]].add(sep[a].first, sep[b].first, w);
          orow.blocks[plan.converted_block[parent]].add(sep[a].second, sep[b].second, -w);
          conv.add_row(std::move(orow));
        }
      }
    }
  }

  util::log_debug("chordal: decomposed ", map.plans.size(), " block(s), max clique ",
                  map.max_clique_size(), ", ", conv.num_rows() - map.original_rows,
                  " overlap rows");
  p = std::move(conv);
  return map;
}

ChordalMap chordal_decompose(Problem& p, const ChordalOptions& options) {
  return apply_decomposition(p, plan_decomposition(p, options));
}

namespace {

/// Clique-tree PSD completion (Grone et al.): walk the cliques in RIP
/// preorder; each clique contributes its own entries, and the unknown block
/// between its residual R and the previously placed vertices completes as
/// X[T,R] = X[T,S] X[S,S]^+ X[S,R] through the separator S, which keeps the
/// assembled matrix PSD (up to the solver tolerance already present in the
/// clique blocks).
Matrix complete_block(const BlockPlan& plan, const std::vector<Matrix>& converted_x) {
  const std::size_t n = plan.original_size;
  Matrix x(n, n);
  std::vector<bool> placed(n, false);
  std::vector<std::size_t> placed_list;
  for (std::size_t k = 0; k < plan.forest.cliques.size(); ++k) {
    const auto& clique = plan.forest.cliques[k];
    const std::size_t cb = plan.converted_block[k];
    if (cb >= converted_x.size() || converted_x[cb].rows() != clique.size()) continue;
    Matrix xk = converted_x[cb];
    xk.symmetrize();

    std::vector<std::size_t> sep_local, res_local;
    for (std::size_t a = 0; a < clique.size(); ++a)
      (placed[clique[a]] ? sep_local : res_local).push_back(a);

    // The clique's own entries; pairs already placed keep the earlier copy
    // (equal to the overlap-row residual tolerance anyway).
    for (std::size_t a = 0; a < clique.size(); ++a) {
      for (std::size_t b = a; b < clique.size(); ++b) {
        if (placed[clique[a]] && placed[clique[b]]) continue;
        x(clique[a], clique[b]) = xk(a, b);
        x(clique[b], clique[a]) = xk(a, b);
      }
    }

    // Completion of the block between the residual and the vertices placed
    // before this clique but outside its separator.
    std::vector<std::size_t> outside;
    for (const std::size_t g : placed_list) {
      if (std::find(clique.begin(), clique.end(), g) == clique.end()) outside.push_back(g);
    }
    if (!sep_local.empty() && !res_local.empty() && !outside.empty()) {
      const std::size_t s = sep_local.size(), r = res_local.size(), t = outside.size();
      Matrix xss(s, s);
      for (std::size_t a = 0; a < s; ++a)
        for (std::size_t b = 0; b < s; ++b)
          xss(a, b) = x(clique[sep_local[a]], clique[sep_local[b]]);
      const Matrix pinv = pinv_psd(xss);
      Matrix xts(t, s);
      for (std::size_t a = 0; a < t; ++a)
        for (std::size_t b = 0; b < s; ++b) xts(a, b) = x(outside[a], clique[sep_local[b]]);
      Matrix xsr(s, r);
      for (std::size_t a = 0; a < s; ++a)
        for (std::size_t b = 0; b < r; ++b) xsr(a, b) = xk(sep_local[a], res_local[b]);
      const Matrix fill = (xts * pinv) * xsr;
      for (std::size_t a = 0; a < t; ++a) {
        for (std::size_t b = 0; b < r; ++b) {
          x(outside[a], clique[res_local[b]]) = fill(a, b);
          x(clique[res_local[b]], outside[a]) = fill(a, b);
        }
      }
    }
    for (const std::size_t a : res_local) {
      placed[clique[a]] = true;
      placed_list.push_back(clique[a]);
    }
  }
  return x;
}

}  // namespace

Solution recover_original(Solution sol, const ChordalMap& map) {
  if (map.identity()) return sol;
  const util::Timer complete_timer;
  if (sol.y.size() > map.original_rows) sol.y.resize(map.original_rows);

  // Kept blocks move over; clique blocks are read in place below (kept and
  // clique blocks are distinct converted indices).
  const std::size_t nblocks = map.original_block_sizes.size();
  std::vector<Matrix> x(nblocks), z(nblocks);
  for (std::size_t j = 0; j < nblocks; ++j) {
    const std::size_t cb = map.block_map[j];
    if (cb == ChordalMap::kNotMapped) continue;
    if (cb < sol.x.size()) x[j] = std::move(sol.x[cb]);
    if (cb < sol.z.size()) z[j] = std::move(sol.z[cb]);
  }
  for (const BlockPlan& plan : map.plans) {
    const std::size_t n = plan.original_size;
    // Primal: clique-tree PSD completion of the partial matrix.
    x[plan.original_block] = complete_block(plan, sol.x);
    // Dual slack: scatter-add (Agler) — the overlap-row multipliers cancel
    // in +/- pairs, so the sum satisfies C - sum_i y_i A_i = Z exactly and
    // is PSD as a sum of padded PSD blocks.
    Matrix zj(n, n);
    for (std::size_t k = 0; k < plan.forest.cliques.size(); ++k) {
      const std::size_t cb = plan.converted_block[k];
      const auto& clique = plan.forest.cliques[k];
      if (cb >= sol.z.size() || sol.z[cb].rows() != clique.size()) continue;
      for (std::size_t a = 0; a < clique.size(); ++a)
        for (std::size_t b = 0; b < clique.size(); ++b)
          zj(clique[a], clique[b]) += sol.z[cb](a, b);
    }
    z[plan.original_block] = std::move(zj);
  }
  sol.x = std::move(x);
  sol.z = std::move(z);
  // Completion/recovery time is part of the decomposed round trip; stamp
  // it so PhaseTimes comparisons stay honest.
  sol.phase.complete += complete_timer.seconds();
  return sol;
}

}  // namespace soslock::sdp
