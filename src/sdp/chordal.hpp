#pragma once
// Chordal decomposition of large PSD blocks (Vandenberghe–Andersen / the
// Fukuda–Kojima "domain-space" conversion method). A block X_j enters the
// data only through its *aggregate sparsity pattern* — the union of the
// nonzero positions of C_j and of every row coefficient A_ij. When that
// pattern (chordally extended) has maximal cliques C_1..C_K, Grone's
// completion theorem makes
//
//   X_j ⪰ 0   ⟺   X_j|C_k ⪰ 0 for all k   (+ a PSD completion off-pattern)
//
// so the conversion replaces the size-n block by K clique-sized blocks,
// re-targets every data entry at its canonical clique, and ties the copies
// of entries shared along the clique tree with zero-rhs equality rows
// appended after the original ones (Vandenberghe & Andersen 2015, §4).
// The backends see a plain block SDP; the clique tree itself lives in the
// returned ChordalMap.
//
// Scope note: a Gram block emitted by the SOS compiler always has a
// *complete* aggregate pattern (every entry pair b_r*b_c is matched by a
// coefficient row), so this pass would never fire on SOS-compiled blocks —
// the compile-time correlative split (poly/sparsity) is what decomposes
// those, and the SOS layer lowers without this pass. The conversion serves
// directly-built sdp::Problems (banded/arrow structures, the clock-tree
// coupling SDP), which request it through sdp::LoweringOptions; complete
// patterns are detected and skipped without running the elimination.
//
// The converted problem is *equivalent* (not a relaxation or a
// restriction): recover_original maps its solution back, recombining the
// dual slacks by scatter-add (Agler) and completing the primal clique blocks
// into one dense PSD matrix by clique-tree completion, so certificate
// auditing is unchanged.
#include <string>
#include <vector>

#include "sdp/options.hpp"
#include "sdp/problem.hpp"
#include "util/chordal.hpp"

namespace soslock::sdp {

/// Decomposition plan of one original block.
struct BlockPlan {
  std::size_t original_block = 0;
  std::size_t original_size = 0;
  /// Cliques over the original block's indices (RIP preorder — see
  /// util/chordal.hpp); the completion in recover_original walks this order.
  util::CliqueForest forest;
  /// Converted-problem block index of each clique.
  std::vector<std::size_t> converted_block;
};

/// How a converted problem maps back onto the original shape.
struct ChordalMap {
  std::size_t original_rows = 0;
  std::vector<std::size_t> original_block_sizes;
  /// original block -> converted block; kNotMapped for decomposed blocks.
  static constexpr std::size_t kNotMapped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> block_map;
  std::vector<BlockPlan> plans;

  bool identity() const { return plans.empty(); }
  /// Largest clique over all decomposed blocks (0 when identity).
  std::size_t max_clique_size() const;
};

/// Canonical-assignment index of one decomposed block: for every vertex the
/// cliques that hold it, so that a pattern entry (r, c) resolves to the
/// clique holding its canonical copy (the first clique containing both) and
/// to its local position there. This is the layout apply_decomposition uses
/// to retarget coefficients at clique blocks. Its size is the sum of the
/// clique sizes, not n x n.
struct BlockEntryIndex {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// One membership: clique `clique` holds the vertex at local index `local`.
  struct Slot {
    std::size_t clique = kNone, local = kNone;
  };
  /// Where entry (r, c) lives: its canonical clique (kNone off-pattern) and
  /// the local indices of r and c in it.
  struct Entry {
    std::size_t clique = kNone, r = kNone, c = kNone;
  };
  /// Per vertex of the original block, its memberships by ascending clique.
  std::vector<std::vector<Slot>> slots;

  std::size_t n() const { return slots.size(); }
  /// Local index of vertex v in clique k; kNone when k does not hold v.
  std::size_t local(std::size_t k, std::size_t v) const;
  Entry find(std::size_t r, std::size_t c) const;
};
BlockEntryIndex index_decomposed_block(const util::CliqueForest& forest, std::size_t n);

/// Analysis half of the conversion (the "analyze" + "decompose" passes of
/// the sdp/lowering pipeline): which blocks split, along which cliques.
/// Reads `p` only.
struct ConversionPlan {
  std::vector<util::CliqueForest> forests;  // per block; empty when kept
  std::vector<bool> split;                  // per block
  bool any = false;
  /// Structural summary for pass provenance, e.g. "2 block(s), max clique 4".
  std::string detail;
};
ConversionPlan plan_decomposition(const Problem& p, const ChordalOptions& options);

/// Emission half (the "lower" pass): rewrite `p` along `plan`. The original
/// rows keep their indices [0, map.original_rows); one zero-rhs overlap row
/// per shared separator entry of each clique-tree edge follows them, tying
/// the child's copy (+w) to the parent's (-w). A plan with nothing to split
/// leaves `p` untouched and returns the identity map.
ChordalMap apply_decomposition(Problem& p, const ConversionPlan& plan);

/// Decompose every block of `p` that is at least `options.min_block_size`
/// wide and whose chordal aggregate pattern splits into genuinely smaller
/// cliques (plan_decomposition + apply_decomposition). `p` is rewritten in
/// place (original rows keep their indices). When nothing qualifies, `p` is
/// untouched and the returned map is the identity.
ChordalMap chordal_decompose(Problem& p, const ChordalOptions& options);

/// Map a converted-space solution back onto the original problem shape.
/// Multipliers of rows beyond the original ones are dropped from y, dual
/// slacks scatter-add into dense blocks (exactly dual-feasible, PSD as a sum
/// of padded PSDs), and primal clique blocks are completed into a dense PSD
/// matrix along the clique tree. Every other field (status, residuals,
/// telemetry, recoveries, faulted phase) carries over unchanged.
Solution recover_original(Solution sol, const ChordalMap& map);

}  // namespace soslock::sdp
