#include "sdp/lowering.hpp"

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

/// The equilibrate pass: row-scale `problem` (structure-preserving), store
/// the scaling in `out` and record the pass.
void equilibrate_pass(Problem& problem, Lowering& out) {
  const util::Timer pass_timer;
  out.scaling = equilibrate_rows(problem);
  std::size_t scaled = 0;
  for (const double s : out.scaling.row_scale) scaled += s != 1.0 ? 1 : 0;
  PassRecord rec;
  rec.name = "equilibrate";
  rec.fingerprint = out.lowered_fingerprint;
  rec.detail =
      std::to_string(scaled) + "/" + std::to_string(out.scaling.row_scale.size()) + " rows scaled";
  rec.seconds = pass_timer.seconds();
  out.passes.push_back(std::move(rec));
  SOSLOCK_VERIFY_PASS(problem, out.lowered_fingerprint, "equilibrate");
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
                       : std::to_string(out.map.plans.size()) + " block(s) split, max clique " +
                             std::to_string(out.map.max_clique_size()) + ", " +
                             std::to_string(problem.num_rows() - out.map.original_rows) +
                             " overlap rows";
      rec.seconds = pass_timer.seconds();
      out.passes.push_back(std::move(rec));
    }
    SOSLOCK_VERIFY_PASS(problem, out.lowered_fingerprint, "lower", nullptr, &out.map);
  }
  if (!convert) out.lowered_fingerprint = out.base_fingerprint;

  equilibrate_pass(problem, out);

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

/// Are both blob blocks n x n? A non-square block (a corrupt checkpoint
/// lane) would be read out of bounds by the backend's warm restore.
bool square_pair(const Matrix& x, const Matrix& z, std::size_t n) {
  return x.rows() == n && x.cols() == n && z.rows() == n && z.cols() == n;
}

}  // namespace

WarmStart remap_warm_start(const WarmStart& original, const Lowering& lowering) {
  if (original.empty() || lowering.decomposed()) return WarmStart{};
  const Problem& problem = lowering.problem;
  if (original.x.size() != problem.num_blocks() || original.z.size() != problem.num_blocks() ||
      original.y.size() != problem.num_rows() || original.w.size() != problem.num_free()) {
    util::log_debug("lowering: warm blob shape does not match the base space; cold start");
    return WarmStart{};
  }
  for (std::size_t j = 0; j < problem.num_blocks(); ++j) {
    if (!square_pair(original.x[j], original.z[j], problem.block_size(j))) {
      util::log_debug("lowering: warm blob block ", j, " shape drifted; cold start");
      return WarmStart{};
    }
  }

  WarmStart out;
  out.fingerprint = lowering.lowered_fingerprint;
  out.x = original.x;
  out.z = original.z;
  out.w = original.w;
  // Row multipliers, scaled into the equilibrated row space the backend sees.
  out.y = original.y;
  for (std::size_t i = 0; i < out.y.size() && i < lowering.scaling.row_scale.size(); ++i)
    out.y[i] *= lowering.scaling.row_scale[i];
  return out;
}

bool LoweringCache::options_match(const LoweringOptions& options) const {
  return options.sparsity == options_.sparsity &&
         options.chordal.min_block_size == options_.chordal.min_block_size;
}

const Lowering& LoweringCache::lower(Problem problem, const LoweringOptions& options) {
  if (valid_ && options_match(options) && try_update(problem)) {
    updates_.fetch_add(1, std::memory_order_relaxed);
    return lowering_;
  }
  lowering_ = soslock::sdp::lower(std::move(problem), options);
  options_ = options;
  valid_ = true;
  full_.fetch_add(1, std::memory_order_relaxed);
  return lowering_;
}

bool LoweringCache::try_update(Problem& problem) {
  if (lowering_.decomposed() || structure_fingerprint(problem) != lowering_.base_fingerprint)
    return false;
  const util::Timer pass_timer;
  // The lowered problem IS the base problem up to row equilibration: adopt
  // the fresh values wholesale and re-equilibrate below. Shape paranoia
  // first — a fingerprint collision must fall back, not corrupt the cache.
  if (problem.num_rows() != lowering_.problem.num_rows() ||
      problem.num_free() != lowering_.problem.num_free() ||
      problem.block_sizes() != lowering_.problem.block_sizes()) {
    return false;
  }
  lowering_.problem = std::move(problem);

  lowering_.passes.clear();
  {
    PassRecord rec;
    rec.name = "update";
    rec.fingerprint = lowering_.lowered_fingerprint;
    rec.detail = std::to_string(lowering_.problem.num_rows()) + " row(s) rewritten in place";
    rec.seconds = pass_timer.seconds();
    lowering_.passes.push_back(std::move(rec));
  }
  SOSLOCK_VERIFY_PASS(lowering_.problem, lowering_.lowered_fingerprint, "update");

  // Re-equilibrate the fresh values. Idempotent on what it leaves behind
  // (a unit-inf-norm row rescales by exactly 1.0).
  equilibrate_pass(lowering_.problem, lowering_);
  lowering_.convert_seconds = 0.0;
  for (const PassRecord& rec : lowering_.passes) lowering_.convert_seconds += rec.seconds;

  reseed_structure(lowering_);
  return true;
}

}  // namespace soslock::sdp
