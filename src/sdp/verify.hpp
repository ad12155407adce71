#pragma once
// Debug-mode structural verifier for the SOS→SDP lowering pipeline.
//
// Five passes mutate a cached sdp::Problem (analyze → decompose → lower →
// equilibrate, plus LoweringCache's coefficient-update fast path), and
// every one of them assumes invariants the others established: triplet
// indices inside their block and upper-triangular-canonical, clique entry
// maps consistent with their clique vertices, an acyclic RIP-ordered clique
// tree, zero-rhs overlap rows, finite coefficients, a structure
// fingerprint that still matches the data it was stamped from. A pass that
// silently breaks one of these does not crash — it produces a *wrong
// certificate* several layers later (a misaligned warm start, a Schur row
// read out of range, a completion walked along a cyclic tree). verify()
// checks all of them in one sweep so corruption fails loudly at the pass
// that introduced it.
//
// Usage:
//  * verify(p, structure, map) — full check; always compiled, callable from
//    tests and external drivers. `structure` adds the fingerprint-
//    recomputation, incidence and PassRecord-provenance checks when
//    non-null; `map` (a chordal lowering's ChordalMap) adds the clique-tree
//    and overlap-row checks.
//  * SOSLOCK_VERIFY_PASS(p, fingerprint, "pass"[, structure, map]) — the
//    automatic post-pass hook inside sdp/lowering (the "lower" pass hands
//    it the map). Under the SDP_VERIFY CMake option (default ON
//    for Debug builds, ON in the CI sanitizer matrix) it verifies and throws
//    std::logic_error naming the pass that broke the invariant; in Release
//    it compiles to nothing, so the hot path pays zero (the bench gates
//    confirm this — they run the Release build).
//
// Adding a pass to the pipeline? Add its name to pass_rank() below so the
// provenance-monotonicity check accepts it, place a SOSLOCK_VERIFY_PASS
// after its mutation, and — if it introduces a new structural invariant —
// add a check_* lambda in verify() with a new check id. The check ids are a
// stable interface: tests match on them (VerifyResult::has).
#include <cstdint>
#include <string>
#include <vector>

#include "sdp/chordal.hpp"
#include "sdp/problem.hpp"
#include "sdp/structure.hpp"

namespace soslock::sdp {

/// One broken invariant: a machine-matchable check id plus a human-readable
/// message naming the offending index/entry.
struct VerifyViolation {
  std::string check;    // e.g. "triplet-range", "clique-tree-cycle"
  std::string message;  // detail: which row/block/clique/entry broke it
};

struct VerifyResult {
  /// The lowering pass that produced the verified problem: the last
  /// provenance record when verifying against a ProblemStructure, or the
  /// name the SOSLOCK_VERIFY_PASS hook passed. Empty when unknown.
  std::string pass;
  std::vector<VerifyViolation> violations;

  bool ok() const { return violations.empty(); }
  /// Any violation with the given check id?
  bool has(const std::string& check) const;
  /// Multi-line report naming the pass and every violation; "ok" when clean.
  std::string str() const;
};

/// Verify every structural invariant of `p` the pipeline assumes:
///  - block dims: triplet indices of every row coefficient and block
///    objective in range and upper-triangular-canonical (r <= c, no
///    duplicate positions), free indices in range;
///  - with a non-identity `map`: per decomposed block, clique vertices
///    ascending/in range, clique blocks bijectively assigned with matching
///    sizes, vertex cover, clique-tree parents acyclic and RIP-preordered;
///    and the rows after map.original_rows one per tied separator entry,
///    each zero-rhs, free-variable-free and pairing two clique blocks of
///    one plan with equal entry counts;
///  - values: no NaN/Inf anywhere in rhs / triplets / free coefficients /
///    objectives;
///  - with `structure`: shape compatibility, fingerprint recomputation
///    matching the stamped fingerprint, row→block incidence matching a
///    recomputation, and PassRecord provenance monotone (known pass names in
///    pipeline order, fingerprints consistent with base/lowered stamps).
VerifyResult verify(const Problem& p, const ProblemStructure* structure = nullptr,
                    const ChordalMap* map = nullptr);

/// Post-pass hook body: verify(p, structure, map), additionally recompute
/// the structure fingerprint against `expected_fingerprint` (0 skips that
/// check), and throw std::logic_error with a report naming `pass` on any
/// violation. Always compiled (tests drive it directly); the macro below
/// gates the pipeline call sites.
void verify_pass_or_throw(const Problem& p, std::uint64_t expected_fingerprint,
                          const char* pass, const ProblemStructure* structure = nullptr,
                          const ChordalMap* map = nullptr);

#if defined(SOSLOCK_SDP_VERIFY)
#define SOSLOCK_VERIFY_PASS(problem, fingerprint, ...) \
  ::soslock::sdp::verify_pass_or_throw((problem), (fingerprint), __VA_ARGS__)
#else
#define SOSLOCK_VERIFY_PASS(problem, fingerprint, ...) ((void)0)
#endif

}  // namespace soslock::sdp
