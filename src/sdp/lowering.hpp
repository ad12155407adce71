#pragma once
// Staged SOS→SDP lowering pipeline. The compiler (sos/compiler) emits a
// block SDP; everything between that emission and the backend used to be a
// sequence of ad-hoc steps (chordal conversion, fingerprinting, equilibration)
// hard-wired into SosProgram::solve. This header makes it an explicit
// pipeline of ordered passes, each recording its provenance:
//
//   analyze     — support/aggregate-sparsity analysis: base fingerprint of
//                 the as-compiled problem (the space warm blobs live in) and
//                 the candidate screening for decomposition.
//   decompose   — chordal clique planning of every qualifying PSD block
//                 (sdp::plan_decomposition).
//   lower       — block lowering: clique blocks replace decomposed ones,
//                 and zero-rhs overlap rows after the original rows tie
//                 the clique copies of every shared entry.
//   equilibrate — row equilibration (sdp/scaling).
//
// The decompose and lower passes run only when LoweringOptions asks for
// SparsityOptions::Chordal, which only directly-built sdp::Problems do (the
// clock-tree coupling SDP): an SOS-compiled Gram block has a complete
// aggregate pattern, so the SOS layer lowers with the default options.
//
// Warm-start blobs live in the *base* (pre-lowering, unequilibrated) space
// and carry the base fingerprint. remap_warm_start scales an identity
// lowering's row multipliers into the equilibrated rows; a decomposed
// lowering starts cold.
//
// Adding a pass: run it inside lower() between the existing stages, mutate
// `Lowering::problem`, and push a PassRecord (name, post-pass structure
// fingerprint, wall seconds, human-readable detail). If the pass changes
// the block/row shape, teach recover how to cross it — that is the whole
// contract; fingerprints and provenance are recomputed here, and the
// backends only ever see the final problem plus its cached
// ProblemStructure.
#include <atomic>
#include <cstdint>
#include <vector>

#include "sdp/chordal.hpp"
#include "sdp/options.hpp"
#include "sdp/problem.hpp"
#include "sdp/scaling.hpp"
#include "sdp/solver.hpp"
#include "sdp/structure.hpp"

namespace soslock::sdp {

struct LoweringOptions {
  SparsityOptions sparsity = SparsityOptions::Off;
  ChordalOptions chordal;
};

/// Everything the pipeline produced for one compiled problem: the lowered
/// problem the backend solves, the maps to get solutions and warm blobs
/// across the lowering, and the per-pass provenance.
struct Lowering {
  Problem problem;  // lowered + equilibrated: what the backend factors
  /// Structure fingerprint of the problem as compiled, before any lowering
  /// pass — the space warm-start blobs are exported in and accepted against.
  std::uint64_t base_fingerprint = 0;
  /// Structure fingerprint of `problem` (what the backends' caches key on).
  std::uint64_t lowered_fingerprint = 0;
  ChordalMap map;   // identity when no block decomposed
  Scaling scaling;  // row equilibration applied to `problem`
  std::vector<PassRecord> passes;  // provenance, one record per pass run
  double convert_seconds = 0.0;    // summed pass wall time (PhaseTimes::convert)

  bool decomposed() const { return !map.identity(); }
};

/// Run the pass pipeline over a compiled problem (consumed by value). The
/// resulting structure — with base fingerprint and pass provenance attached
/// — is seeded into StructureCache::global() so the backend's lookup hits
/// it.
Lowering lower(Problem problem, const LoweringOptions& options);

/// Map a lowered-space solution back onto the original compiled shape:
/// un-equilibrate the dual multipliers, complete decomposed primal cones
/// along their clique trees, scatter-add the dual slacks (Agler). Stamps
/// PhaseTimes::convert with the pipeline's pass time and
/// PhaseTimes::complete with the recovery time, so decomposed-vs-dense
/// comparisons account for the full round trip.
Solution recover(Solution solution, const Lowering& lowering);

/// Remap a base-space warm blob into an identity lowering: the blocks and
/// free variables copy over, and the row multipliers are scaled into the
/// equilibrated row space. A decomposed lowering returns an empty WarmStart
/// (cold start).
///
/// Drift guard: a blob whose fingerprint matches but whose block, row or
/// free-variable shapes do not (a stale or corrupt checkpoint lane) is
/// rejected whole, returning an empty WarmStart instead of handing
/// out-of-range reads to the backend's warm restore.
WarmStart remap_warm_start(const WarmStart& original, const Lowering& lowering);

/// One-slot lowering cache with an in-place coefficient-update fast path —
/// the pipeline's fifth pass ("update"). Design-space sweeps solve long runs
/// of problems that share one compiled structure and differ only in
/// coefficient values; re-running the pipeline per grid point repays it for
/// answers that cannot have changed. lower() here detects that case by base
/// fingerprint (value-independent, so an equal fingerprint means the cached
/// layout still holds), adopts the fresh problem as the cached identity
/// lowering, re-equilibrates it and stamps ["update", "equilibrate"]
/// provenance.
///
/// Fallback contract: any mismatch runs the full pipeline and re-caches.
/// That covers a different base fingerprint (including a coefficient that
/// became exactly 0.0 — SparseSym::add drops zeros, so the triplet set
/// itself changed), different pass options, and a decomposed cached
/// lowering, which never updates in place.
///
/// Not thread-safe: one cache per sweep lane / worker. The telemetry
/// counters (full_lowerings / updates) are the one exception — they are
/// atomics, so a monitoring thread may poll them while the owning lane is
/// mid-lower() without a data race (the values are momentarily stale, never
/// torn).
class LoweringCache {
 public:
  /// Lower `problem` via the in-place update pass when the cached lowering
  /// applies, else via the full pipeline. The reference stays valid until
  /// the next lower() call on this cache.
  const Lowering& lower(Problem problem, const LoweringOptions& options);

  bool valid() const { return valid_; }
  /// Full pipeline runs (the first call plus every fallback).
  std::size_t full_lowerings() const { return full_.load(std::memory_order_relaxed); }
  /// In-place coefficient updates (recompile-free solves).
  std::size_t updates() const { return updates_.load(std::memory_order_relaxed); }

 private:
  bool options_match(const LoweringOptions& options) const;
  /// Adopt `problem`'s values into the cached identity lowering (same base
  /// fingerprint and shapes). False = run the full pipeline; the cache is
  /// only mutated on success.
  bool try_update(Problem& problem);

  Lowering lowering_;
  LoweringOptions options_;
  bool valid_ = false;
  std::atomic<std::size_t> full_{0};
  std::atomic<std::size_t> updates_{0};
};

}  // namespace soslock::sdp
