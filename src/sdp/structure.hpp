#pragma once
// Structural identity and cached sparsity patterns for SDP problems.
//
// The verification pipeline solves long chains of SDPs that share one
// compiled *structure* (block sizes, row sparsity, free-variable incidence)
// and differ only in coefficient values (an advection eps/lambda retry, a
// level maximisation per mode, a warm-started re-solve). Two facilities
// exploit that:
//
//  - structure_fingerprint(): a 64-bit hash of everything value-independent,
//    used to decide whether a WarmStart blob or a cached pattern applies.
//  - StructureCache: a small fingerprint-keyed store for the row→block
//    incidence that both backends otherwise rediscover on every solve.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sdp/problem.hpp"
#include "util/thread_annotations.hpp"

namespace soslock::sdp {

/// Hash of the value-independent structure of `p`: block sizes, free count,
/// per row the touched blocks, triplet positions and free indices (not their
/// values). Two problems with equal fingerprints accept each other's solver
/// state as a warm start and share sparsity caches.
std::uint64_t structure_fingerprint(const Problem& p);

/// Provenance of one lowering pass (sdp/lowering): what ran, the structure
/// fingerprint it left behind, and how long it took. A chain of these is the
/// audit trail from the compiled problem to what the backend factored.
struct PassRecord {
  std::string name;               // "analyze" | "decompose" | "lower" | ...
  std::uint64_t fingerprint = 0;  // structure fingerprint after the pass
  double seconds = 0.0;
  std::string detail;             // human-readable summary
};

/// Value-independent sparsity pattern shared by structurally equal problems.
struct ProblemStructure {
  std::uint64_t fingerprint = 0;
  std::size_t num_rows = 0;  // of the source problem (collision guard)
  /// For each block, the rows whose coefficient touches it (ascending).
  std::vector<std::vector<std::size_t>> rows_touching_block;
  /// Fingerprint of the pre-lowering problem this structure was lowered from
  /// (0 = not produced by the lowering pipeline). Warm-start blobs live in
  /// that base space, so this is what blob acceptance keys on.
  std::uint64_t base_fingerprint = 0;
  /// One record per lowering pass that produced this structure (empty when
  /// the problem reached the backend without lowering).
  std::vector<PassRecord> provenance;

  /// Cheap shape check against a problem about to consume this pattern: a
  /// 64-bit fingerprint collision would otherwise hand the backends row
  /// indices into a different problem (out-of-bounds in the hot loops).
  bool compatible_with(const Problem& p) const {
    return rows_touching_block.size() == p.num_blocks() && num_rows == p.num_rows();
  }
};

/// Build the pattern from scratch (also records the fingerprint).
ProblemStructure build_structure(const Problem& p);
/// Same, with the fingerprint already computed by the caller (the lowering
/// pipeline hashes once and reuses it for pass records, blobs and here).
ProblemStructure build_structure(const Problem& p, std::uint64_t fingerprint);

/// Point-in-time counters of a StructureCache (see telemetry()). Sweep
/// drivers surface these per request: a thousand-point sweep over one
/// compiled structure should show ~1 miss and hits ~= points — a growing
/// miss/eviction count means the grid's shapes are thrashing the cap.
struct StructureCacheTelemetry {
  std::size_t hits = 0;
  std::size_t misses = 0;      // fresh builds in get() (collision drops included)
  std::size_t evictions = 0;   // entries dropped by the LRU capacity bound
  std::size_t entries = 0;     // currently cached
  std::size_t capacity = 0;
};

/// Small fingerprint-keyed LRU cache for ProblemStructure; thread-safe.
/// Both backends consult the process-wide instance (global()), so the
/// pipeline's repeated structurally equal solves skip the pattern rebuild
/// even though a fresh backend object is constructed per solve — including
/// from the batched per-mode stages' and sweep lanes' worker threads, which
/// hit it concurrently.
///
/// Concurrency contract (exercised by the warmstart_test stress test):
///  * every access to `slots_`/`hits_` happens under `mutex_` — the LRU
///    move-to-front erase/insert can never invalidate another thread's
///    iteration because no thread iterates without the lock;
///  * the expensive pattern build runs *outside* the lock; the insert
///    re-checks under the lock so two simultaneous first misses of one
///    shape keep a single slot (duplicate slots would evict live patterns);
///  * entries are returned as shared_ptr<const ...>, so an evicted pattern
///    stays alive for the solves still holding it;
///  * a fingerprint-collision hit (same hash, different shape) is detected
///    via ProblemStructure::compatible_with and replaced instead of served.
class StructureCache {
 public:
  explicit StructureCache(std::size_t capacity = 16) : capacity_(capacity) {}

  /// Return the cached structure when the fingerprint matches, else build,
  /// store (evicting least-recently-used) and return a fresh one.
  std::shared_ptr<const ProblemStructure> get(const Problem& p) const;

  /// Seed the cache with an externally built structure (the lowering
  /// pipeline inserts the pattern it already computed, with base fingerprint
  /// and pass provenance attached, so the backend's get() hits it). An
  /// existing slot with the same fingerprint is replaced.
  void put(std::shared_ptr<const ProblemStructure> structure) const;

  /// Probe for a cached structure by fingerprint without building or
  /// promoting anything (and without counting a hit); null on miss. Lets
  /// the lowering pipeline skip the pattern rebuild + reseed on repeated
  /// structurally identical solves.
  std::shared_ptr<const ProblemStructure> find(std::uint64_t fingerprint) const;

  /// Cache hits since construction (telemetry for tests/benches).
  std::size_t hits() const;
  /// Full counter snapshot (hits/misses/evictions/entries/capacity).
  StructureCacheTelemetry telemetry() const;

  /// Change the LRU entry cap; excess least-recently-used entries are
  /// evicted immediately (counted). The process-wide cache is long-lived, so
  /// an unbounded (or oversized) cap would leak one pattern per distinct
  /// shape ever solved; the default of 16 keeps it bounded.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// The process-wide cache used by the built-in backends.
  static StructureCache& global();

 private:
  /// Drop least-recently-used entries beyond capacity_; counts evictions.
  void enforce_capacity_locked() const SOSLOCK_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::size_t capacity_ SOSLOCK_GUARDED_BY(mutex_);
  mutable std::size_t hits_ SOSLOCK_GUARDED_BY(mutex_) = 0;
  mutable std::size_t misses_ SOSLOCK_GUARDED_BY(mutex_) = 0;
  mutable std::size_t evictions_ SOSLOCK_GUARDED_BY(mutex_) = 0;
  /// Most-recently-used first.
  mutable std::vector<std::shared_ptr<const ProblemStructure>> slots_
      SOSLOCK_GUARDED_BY(mutex_);
};

/// Per-solve flat view of the row coefficients of one block: pointers into a
/// specific Problem instance, laid out for the hot Schur/residual loops (no
/// std::map lookups). Rebuilt per solve (the pointers die with the problem
/// copy); the loop ordering comes from the cached incidence.
struct BlockRowView {
  std::size_t row = 0;
  const SparseSym* coeff = nullptr;
};

/// views[j] lists (row, A_ij) for every row touching block j, in row order.
std::vector<std::vector<BlockRowView>> build_block_row_views(
    const Problem& p, const ProblemStructure& structure);

}  // namespace soslock::sdp
