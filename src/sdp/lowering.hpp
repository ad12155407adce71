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
//                 with overlap consistency registered as
//                 sdp::DecomposedCone couplings.
//   equilibrate — row equilibration (sdp/scaling).
//
// Warm-start blobs live in the *base* (pre-lowering) space: a blob exported
// from one lowering replays into any other lowering of the same compiled
// problem via per-clique remapping (remap_warm_start), so pass-parameter
// changes — min_block_size, even the sparsity mode when it does not change
// the compiled blocks — no longer orphan solver state the way the old
// fingerprint salting did.
//
// Adding a pass: run it inside lower() between the existing stages, mutate
// `Lowering::problem`, and push a PassRecord (name, post-pass structure
// fingerprint, wall seconds, human-readable detail). If the pass changes
// the block/row shape, teach remap_warm_start and recover how to cross it —
// that is the whole contract; fingerprints and provenance are recomputed
// here, and the backends only ever see the final problem plus its cached
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

/// Remap an original-space warm blob into the lowered space: clique blocks
/// are extracted from the dense primal (exactly consistent and PSD), dual
/// slacks are split by entry multiplicity, and the row multipliers are
/// scaled into the equilibrated row space (overlap multipliers are backend
/// state and start at 0).
///
/// Drift guard: every clique's canonical entry map is validated against the
/// blob's block shapes — a clique whose vertices fall outside the blob's
/// original block (a stale map, the remap analog of a fingerprint
/// collision) rejects the whole blob, returning an empty WarmStart (cold
/// start) instead of scattering out-of-range reads into the backend.
WarmStart remap_warm_start(const WarmStart& original, const Lowering& lowering);

/// Snapshot a recovered (original-space) solution as a base-space blob for
/// the next structurally identical compile, whatever its pass parameters.
WarmStart export_warm_start(const Solution& recovered, const Lowering& lowering);

/// One-slot lowering cache with an in-place coefficient-update fast path —
/// the pipeline's fifth pass ("update"). Design-space sweeps solve long runs
/// of problems that share one compiled structure and differ only in
/// coefficient values; re-running analyze → decompose → lower per grid point
/// repays the whole pipeline for answers that cannot have changed. lower()
/// here detects that case by base fingerprint (value-independent, so an
/// equal fingerprint means the cached destination of every triplet still
/// holds), rewrites rhs / free / triplet values of the cached lowered problem
/// in place and re-scatters the objective triplets — decomposed cones
/// included, re-targeting every entry at its canonical clique through the
/// cached BlockPlans (sdp::scatter_to_cliques, as apply_decomposition does)
/// — then re-equilibrates and stamps ["update", "equilibrate"] provenance.
///
/// Fallback contract: any mismatch runs the full pipeline and re-caches.
/// That covers a different base fingerprint (including a coefficient that
/// became exactly 0.0 — SparseSym::add drops zeros, so the triplet set
/// itself changed), different pass options, and an objective triplet off
/// the cached aggregate pattern of a decomposed block (objective triplets
/// are not fingerprinted, but one off the pattern would have changed the
/// decomposition plan). Objective triplets on the pattern, new ones
/// included, take the update.
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
  /// Destination of one base-row triplet inside the cached lowered problem.
  struct TripletDest {
    std::size_t block = 0;  // lowered block index
    std::size_t entry = 0;  // entry index in that block's coeff of the row
  };

  bool options_match(const LoweringOptions& options) const;
  /// Rewrite the cached lowering's values from `problem` (same base
  /// fingerprint, checked by the caller). False = structural surprise, run
  /// the full pipeline; the cached problem is only mutated on success.
  bool try_update(Problem& problem);
  /// Build plan_ / entry_index_ from the cached map, verifying every
  /// destination against the cached lowered rows. Read-only; false on any
  /// mismatch.
  bool build_update_plan(const Problem& base);

  Lowering lowering_;
  LoweringOptions options_;
  bool valid_ = false;
  /// Per base row, triplet destinations aligned with the row's iteration
  /// order (blocks in key order, entries in stored order). Built lazily on
  /// the first update of a decomposed lowering.
  std::vector<std::vector<TripletDest>> plan_;
  bool plan_built_ = false;
  /// Canonical-assignment index per decomposed cone (aligned with
  /// lowering_.map.plans), for the objective guard and re-scatter.
  std::vector<BlockEntryIndex> entry_index_;
  std::atomic<std::size_t> full_{0};
  std::atomic<std::size_t> updates_{0};
};

}  // namespace soslock::sdp
