#include "sdp/lowering.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "sdp/verify.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace soslock::sdp {

using linalg::Matrix;

namespace {

/// Seed the global pattern cache with the lowered structure, carrying the
/// base fingerprint and the pass provenance, unless an equivalent entry is
/// already cached (sweeps bound the cache; a colder shape may have evicted
/// this one).
void reseed_structure(const Lowering& lowering) {
  const auto existing = StructureCache::global().find(lowering.lowered_fingerprint);
  if (existing != nullptr && existing->base_fingerprint == lowering.base_fingerprint &&
      existing->compatible_with(lowering.problem)) {
    return;
  }
  auto structure = std::make_shared<ProblemStructure>(
      build_structure(lowering.problem, lowering.lowered_fingerprint));
  structure->base_fingerprint = lowering.base_fingerprint;
  structure->provenance = lowering.passes;
  StructureCache::global().put(std::move(structure));
}

}  // namespace

Lowering lower(Problem problem, const LoweringOptions& options) {
  Lowering out;
  const util::Timer total_timer;
  util::Timer pass_timer;

  // --- analyze: the base space. Its fingerprint is what warm blobs carry.
  out.base_fingerprint = structure_fingerprint(problem);
  const bool convert = options.sparsity == SparsityOptions::Chordal;
  {
    PassRecord rec;
    rec.name = "analyze";
    rec.fingerprint = out.base_fingerprint;
    rec.detail = problem.stats() + (convert ? "" : " (conversion off)");
    rec.seconds = pass_timer.seconds();
    out.passes.push_back(std::move(rec));
  }
  SOSLOCK_VERIFY_PASS(problem, out.base_fingerprint, "analyze");
  // Injected pipeline failure between passes: `problem` was moved in but no
  // caller-visible state has been touched yet, so an abort here must leave
  // every cache exactly as it was (the fault tests assert this).
  SOSLOCK_FAULT_POINT(util::fault_site::kLoweringPass);

  // --- decompose + lower: chordal clique planning and block lowering.
  if (convert) {
    pass_timer.reset();
    const ConversionPlan plan = plan_decomposition(problem, options.chordal);
    {
      PassRecord rec;
      rec.name = "decompose";
      rec.fingerprint = out.base_fingerprint;  // planning reads only
      rec.detail = plan.detail;
      rec.seconds = pass_timer.seconds();
      out.passes.push_back(std::move(rec));
    }
    SOSLOCK_VERIFY_PASS(problem, out.base_fingerprint, "decompose");
    pass_timer.reset();
    out.map = apply_decomposition(problem, plan);
    {
      PassRecord rec;
      rec.name = "lower";
      // Equilibration below is structure-preserving, so the post-lower
      // fingerprint IS the lowered fingerprint — hash once, record twice.
      out.lowered_fingerprint =
          out.map.identity() ? out.base_fingerprint : structure_fingerprint(problem);
      rec.fingerprint = out.lowered_fingerprint;
      rec.detail = out.map.identity()
                       ? "identity (nothing split)"
                       : "native cones: " + std::to_string(out.map.plans.size()) +
                             " cone(s), max clique " +
                             std::to_string(out.map.max_clique_size());
      rec.seconds = pass_timer.seconds();
      out.passes.push_back(std::move(rec));
    }
    SOSLOCK_VERIFY_PASS(problem, out.lowered_fingerprint, "lower");
  }
  if (!convert) out.lowered_fingerprint = out.base_fingerprint;

  // --- equilibrate: row scaling (structure-preserving).
  pass_timer.reset();
  out.scaling = equilibrate_rows(problem);
  {
    std::size_t scaled = 0;
    for (const double s : out.scaling.row_scale) scaled += s != 1.0 ? 1 : 0;
    PassRecord rec;
    rec.name = "equilibrate";
    rec.fingerprint = out.lowered_fingerprint;
    rec.detail = std::to_string(scaled) + "/" +
                 std::to_string(out.scaling.row_scale.size()) + " rows scaled";
    rec.seconds = pass_timer.seconds();
    out.passes.push_back(std::move(rec));
  }
  SOSLOCK_VERIFY_PASS(problem, out.lowered_fingerprint, "equilibrate");

  out.problem = std::move(problem);
  out.convert_seconds = total_timer.seconds();

  // Seed the pattern cache with the structure we effectively already know,
  // carrying the base fingerprint and the pass provenance, so the backend's
  // lookup returns this annotated instance. Repeated structurally identical
  // solves (the warm-start retry ladders) find their previous entry and
  // skip the rebuild + reseed entirely.
  reseed_structure(out);
  return out;
}

Solution recover(Solution solution, const Lowering& lowering) {
  // Un-scale the dual multipliers so they certify the original rows (the
  // audit and every solution.value() consumer sees the unequilibrated
  // system).
  for (std::size_t i = 0; i < solution.y.size() && i < lowering.scaling.row_scale.size();
       ++i) {
    if (lowering.scaling.row_scale[i] != 0.0) solution.y[i] /= lowering.scaling.row_scale[i];
  }
  if (!lowering.map.identity())
    solution = recover_original(std::move(solution), lowering.map);
  solution.phase.convert += lowering.convert_seconds;
  return solution;
}

namespace {

/// How many cliques of `plan` cover each (r, c) entry pair of the original
/// block — the dual-slack split weights of the warm remap.
std::vector<int> entry_multiplicity(const BlockPlan& plan) {
  const std::size_t n = plan.original_size;
  std::vector<int> mult(n * n, 0);
  for (const auto& clique : plan.forest.cliques) {
    for (const std::size_t r : clique)
      for (const std::size_t c : clique) ++mult[r * n + c];
  }
  return mult;
}

/// Are both blob blocks n x n? A non-square block (a corrupt checkpoint
/// lane) would be read out of bounds by the backend's warm restore.
bool square_pair(const Matrix& x, const Matrix& z, std::size_t n) {
  return x.rows() == n && x.cols() == n && z.rows() == n && z.cols() == n;
}

}  // namespace

WarmStart remap_warm_start(const WarmStart& original, const Lowering& lowering) {
  WarmStart out;
  if (original.empty()) return out;

  // Shape of the base space this lowering came from.
  const std::size_t base_blocks = lowering.map.identity()
                                      ? lowering.problem.num_blocks()
                                      : lowering.map.original_block_sizes.size();
  const std::size_t base_rows =
      lowering.map.identity() ? lowering.problem.num_rows() : lowering.map.original_rows;
  if (original.x.size() != base_blocks || original.z.size() != base_blocks ||
      original.y.size() != base_rows || original.w.size() != lowering.problem.num_free()) {
    util::log_debug("lowering: warm blob shape does not match the base space; cold start");
    return out;
  }

  out.fingerprint = lowering.lowered_fingerprint;
  out.w = original.w;

  // Row multipliers: original rows keep their indices across the lowering.
  // Scale into the equilibrated row space the backend sees.
  out.y.assign(lowering.problem.num_rows(), 0.0);
  for (std::size_t i = 0; i < base_rows; ++i) out.y[i] = original.y[i];
  for (std::size_t i = 0; i < out.y.size() && i < lowering.scaling.row_scale.size(); ++i)
    out.y[i] *= lowering.scaling.row_scale[i];

  out.x.assign(lowering.problem.num_blocks(), Matrix());
  out.z.assign(lowering.problem.num_blocks(), Matrix());
  if (lowering.map.identity()) {
    for (std::size_t j = 0; j < base_blocks; ++j) {
      if (!square_pair(original.x[j], original.z[j], lowering.problem.block_size(j))) {
        util::log_debug("lowering: warm blob block ", j, " shape drifted; cold start");
        return WarmStart{};
      }
      out.x[j] = original.x[j];
      out.z[j] = original.z[j];
    }
    return out;
  }

  // Kept blocks copy over; decomposed blocks restrict per clique.
  for (std::size_t j = 0; j < base_blocks; ++j) {
    const std::size_t cb = lowering.map.block_map[j];
    if (cb == ChordalMap::kNotMapped) continue;
    if (!square_pair(original.x[j], original.z[j], lowering.problem.block_size(cb))) {
      util::log_debug("lowering: warm blob block ", j, " shape drifted; cold start");
      return WarmStart{};
    }
    out.x[cb] = original.x[j];
    out.z[cb] = original.z[j];
  }
  for (const BlockPlan& plan : lowering.map.plans) {
    const std::size_t n = plan.original_size;
    const Matrix& x = original.x[plan.original_block];
    const Matrix& z = original.z[plan.original_block];
    // Drift guard: the canonical entry map of every clique must address the
    // blob's block. A blob from before the map changed (the remap analog of
    // a fingerprint collision) is rejected whole — replaying a misaligned
    // clique would scatter unrelated entries into the backend's iterate.
    if (!square_pair(x, z, n)) {
      util::log_debug("lowering: warm blob cone ", plan.original_block,
                      " shape drifted (", x.rows(), " vs ", n, "); cold start");
      return WarmStart{};
    }
    for (const auto& clique : plan.forest.cliques) {
      for (const std::size_t v : clique) {
        if (v >= n) {
          util::log_debug("lowering: clique entry map drifted out of block ",
                          plan.original_block, "; cold start");
          return WarmStart{};
        }
      }
    }
    const std::vector<int> mult = entry_multiplicity(plan);
    for (std::size_t k = 0; k < plan.forest.cliques.size(); ++k) {
      const auto& clique = plan.forest.cliques[k];
      const std::size_t cb = plan.converted_block[k];
      const std::size_t nk = clique.size();
      Matrix xk(nk, nk), zk(nk, nk);
      for (std::size_t a = 0; a < nk; ++a) {
        for (std::size_t b = 0; b < nk; ++b) {
          const std::size_t r = clique[a], c = clique[b];
          // Primal restriction of a PSD matrix is PSD and exactly
          // consistent across copies; the dual splits by multiplicity so
          // the scatter-add recombination reproduces the dense slack.
          xk(a, b) = x(r, c);
          zk(a, b) = z(r, c) / static_cast<double>(mult[r * n + c]);
        }
      }
      out.x[cb] = std::move(xk);
      out.z[cb] = std::move(zk);
    }
  }
  return out;
}

WarmStart export_warm_start(const Solution& recovered, const Lowering& lowering) {
  return make_warm_start(recovered, lowering.base_fingerprint);
}

namespace {

constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

}  // namespace

bool LoweringCache::options_match(const LoweringOptions& options) const {
  return options.sparsity == options_.sparsity &&
         options.chordal.min_block_size == options_.chordal.min_block_size;
}

const Lowering& LoweringCache::lower(Problem problem, const LoweringOptions& options) {
  if (valid_ && options_match(options) && try_update(problem)) {
    updates_.fetch_add(1, std::memory_order_relaxed);
    return lowering_;
  }
  plan_.clear();
  plan_built_ = false;
  entry_index_.clear();
  lowering_ = soslock::sdp::lower(std::move(problem), options);
  options_ = options;
  valid_ = true;
  full_.fetch_add(1, std::memory_order_relaxed);
  return lowering_;
}

bool LoweringCache::build_update_plan(const Problem& base) {
  const ChordalMap& map = lowering_.map;
  entry_index_.clear();
  entry_index_.reserve(map.plans.size());
  for (const BlockPlan& bp : map.plans)
    entry_index_.push_back(index_decomposed_block(bp.forest, bp.original_size));
  std::vector<std::size_t> plan_of(map.block_map.size(), kNoEntry);
  for (std::size_t pi = 0; pi < map.plans.size(); ++pi)
    plan_of[map.plans[pi].original_block] = pi;

  plan_.assign(base.num_rows(), {});
  for (std::size_t i = 0; i < base.num_rows(); ++i) {
    const Row& brow = base.rows()[i];
    const Row& lrow = lowering_.problem.rows()[i];
    if (brow.free_coeffs.size() != lrow.free_coeffs.size()) return false;
    auto& dests = plan_[i];
    for (const auto& [j, a] : brow.blocks) {
      const std::size_t cb = map.block_map[j];
      if (cb != ChordalMap::kNotMapped) {
        // Kept block: apply_decomposition copied its coefficient verbatim,
        // so destinations are 1:1 at the same entry index. Verify anyway —
        // a position mismatch here is the update analog of a fingerprint
        // collision and must fall back, not scatter.
        const auto it = lrow.blocks.find(cb);
        if (it == lrow.blocks.end() || it->second.entries.size() != a.entries.size())
          return false;
        for (std::size_t e = 0; e < a.entries.size(); ++e) {
          if (it->second.entries[e].r != a.entries[e].r ||
              it->second.entries[e].c != a.entries[e].c) {
            return false;
          }
          dests.push_back({cb, e});
        }
        continue;
      }
      if (j >= plan_of.size() || plan_of[j] == kNoEntry) return false;
      const BlockPlan& bp = map.plans[plan_of[j]];
      const BlockEntryIndex& idx = entry_index_[plan_of[j]];
      // Decomposed block: each triplet lands on its canonical clique. The
      // per-(row, block) map is injective — distinct global pairs stay
      // distinct inside a clique and different cliques are different blocks
      // — so every lowered entry is owned by exactly one base triplet.
      for (const Triplet& t : a.entries) {
        const BlockEntryIndex::Entry entry = idx.find(t.r, t.c);
        if (entry.clique == BlockEntryIndex::kNone) return false;
        const std::size_t db = bp.converted_block[entry.clique];
        const std::size_t lr = std::min(entry.r, entry.c), lc = std::max(entry.r, entry.c);
        const auto dit = lrow.blocks.find(db);
        if (dit == lrow.blocks.end()) return false;
        std::size_t e = kNoEntry;
        for (std::size_t q = 0; q < dit->second.entries.size(); ++q) {
          if (dit->second.entries[q].r == lr && dit->second.entries[q].c == lc) {
            e = q;
            break;
          }
        }
        if (e == kNoEntry) return false;
        dests.push_back({db, e});
      }
    }
  }
  plan_built_ = true;
  return true;
}

bool LoweringCache::try_update(Problem& problem) {
  if (structure_fingerprint(problem) != lowering_.base_fingerprint) return false;
  util::Timer pass_timer;
  const ChordalMap& map = lowering_.map;

  if (map.identity()) {
    // The lowered problem IS the base problem up to row equilibration:
    // adopt the fresh values wholesale (cheaper than any per-entry plan)
    // and re-equilibrate below. Shape paranoia first — a fingerprint
    // collision must fall back, not corrupt the cache.
    if (problem.num_rows() != lowering_.problem.num_rows() ||
        problem.num_free() != lowering_.problem.num_free() ||
        problem.block_sizes() != lowering_.problem.block_sizes()) {
      return false;
    }
    lowering_.problem = std::move(problem);
  } else {
    if (problem.num_rows() != map.original_rows ||
        problem.num_free() != lowering_.problem.num_free() ||
        problem.block_sizes() != map.original_block_sizes) {
      return false;
    }
    if (!plan_built_ && !build_update_plan(problem)) return false;
    // Objective pattern guard, before any mutation: objective triplets are
    // not fingerprinted, so one off the cached aggregate pattern means a
    // fresh plan_decomposition would have chosen different cliques — full
    // pipeline.
    for (std::size_t pi = 0; pi < map.plans.size(); ++pi) {
      const SparseSym& c = problem.block_objective(map.plans[pi].original_block);
      const BlockEntryIndex& idx = entry_index_[pi];
      for (const Triplet& t : c.entries)
        if (idx.find(t.r, t.c).clique == BlockEntryIndex::kNone) return false;
    }

    // All guards passed — rewrite in place. Original rows keep their
    // indices across the lowering; native cone couplings are structural
    // ±1/∓0.5 weights that never change between grid points.
    auto& lrows = lowering_.problem.mutable_rows();
    for (std::size_t i = 0; i < problem.num_rows(); ++i) {
      const Row& brow = problem.rows()[i];
      Row& lrow = lrows[i];
      lrow.rhs = brow.rhs;
      {
        // Same key sets (free indices are fingerprinted): parallel walk.
        auto bit = brow.free_coeffs.begin();
        for (auto& [v, coeff] : lrow.free_coeffs) {
          (void)v;
          coeff = bit->second;
          ++bit;
        }
      }
      std::size_t d = 0;
      SparseSym* dest = nullptr;
      std::size_t dest_block = kNoEntry;
      for (const auto& [j, a] : brow.blocks) {
        (void)j;
        for (const Triplet& t : a.entries) {
          const TripletDest td = plan_[i][d++];
          if (td.block != dest_block) {
            dest = &lrow.blocks.find(td.block)->second;
            dest_block = td.block;
          }
          dest->entries[td.entry].v = t.v;
        }
      }
    }

    // Objectives: kept blocks copy over; decomposed blocks re-scatter on
    // canonical cliques exactly as apply_decomposition did.
    for (std::size_t j = 0; j < problem.num_blocks(); ++j) {
      const std::size_t cb = map.block_map[j];
      if (cb == ChordalMap::kNotMapped) continue;
      lowering_.problem.set_block_objective(cb, problem.block_objective(j));
    }
    for (std::size_t pi = 0; pi < map.plans.size(); ++pi) {
      const BlockPlan& bp = map.plans[pi];
      std::map<std::size_t, SparseSym> clique_obj;
      scatter_to_cliques(problem.block_objective(bp.original_block), bp, entry_index_[pi],
                         clique_obj);
      for (const std::size_t cb : bp.converted_block)
        lowering_.problem.set_block_objective(cb, std::move(clique_obj[cb]));
    }
    for (std::size_t v = 0; v < problem.num_free(); ++v)
      lowering_.problem.set_free_objective(v, problem.free_objective()[v]);
  }

  lowering_.passes.clear();
  {
    PassRecord rec;
    rec.name = "update";
    rec.fingerprint = lowering_.lowered_fingerprint;
    rec.detail = std::to_string(map.identity() ? lowering_.problem.num_rows()
                                               : map.original_rows) +
                 " row(s) rewritten in place" +
                 (map.identity() ? ""
                                 : ", " + std::to_string(map.plans.size()) +
                                       " decomposed cone(s) retargeted");
    rec.seconds = pass_timer.seconds();
    lowering_.passes.push_back(std::move(rec));
  }
  SOSLOCK_VERIFY_PASS(lowering_.problem, lowering_.lowered_fingerprint, "update");

  // Re-equilibrate the fresh values. Idempotent on what it leaves behind
  // (a unit-inf-norm row rescales by exactly 1.0).
  pass_timer.reset();
  lowering_.scaling = equilibrate_rows(lowering_.problem);
  {
    std::size_t scaled = 0;
    for (const double s : lowering_.scaling.row_scale) scaled += s != 1.0 ? 1 : 0;
    PassRecord rec;
    rec.name = "equilibrate";
    rec.fingerprint = lowering_.lowered_fingerprint;
    rec.detail = std::to_string(scaled) + "/" +
                 std::to_string(lowering_.scaling.row_scale.size()) + " rows scaled";
    rec.seconds = pass_timer.seconds();
    lowering_.passes.push_back(std::move(rec));
  }
  SOSLOCK_VERIFY_PASS(lowering_.problem, lowering_.lowered_fingerprint, "equilibrate");
  lowering_.convert_seconds = 0.0;
  for (const PassRecord& rec : lowering_.passes) lowering_.convert_seconds += rec.seconds;

  reseed_structure(lowering_);
  return true;
}

}  // namespace soslock::sdp
