#include "sdp/verify.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace soslock::sdp {

bool VerifyResult::has(const std::string& check) const {
  for (const VerifyViolation& v : violations) {
    if (v.check == check) return true;
  }
  return false;
}

std::string VerifyResult::str() const {
  std::ostringstream os;
  os << "sdp::verify";
  if (!pass.empty()) os << " after pass '" << pass << "'";
  if (ok()) {
    os << ": ok";
    return os.str();
  }
  os << ": " << violations.size() << " invariant violation(s)";
  for (const VerifyViolation& v : violations) {
    os << "\n  [" << v.check << "] " << v.message;
  }
  return os.str();
}

namespace {

/// Pipeline order of the known passes; provenance must list them with
/// strictly increasing rank. "update" replaces analyze→decompose→lower on
/// the LoweringCache fast path, so it shares the pre-equilibrate rank.
int pass_rank(const std::string& name) {
  if (name == "analyze") return 0;
  if (name == "decompose") return 1;
  if (name == "lower") return 2;
  if (name == "update") return 2;
  if (name == "equilibrate") return 3;
  return -1;  // unknown
}

class Checker {
 public:
  explicit Checker(VerifyResult& out) : out_(out) {}

  template <typename... Ts>
  void fail(const char* check, const Ts&... parts) {
    // Cap the report: one corrupt buffer can break thousands of entries, and
    // the first few name the culprit just as well.
    if (out_.violations.size() >= kMaxViolations) return;
    std::ostringstream os;
    (os << ... << parts);
    out_.violations.push_back({check, os.str()});
  }

 private:
  static constexpr std::size_t kMaxViolations = 64;
  VerifyResult& out_;
};

/// Triplet canonical form + ranges of one sparse coefficient. `where` names
/// the containing row for messages; `n` is the block dimension.
void check_sparse_coeff(Checker& chk, const SparseSym& a, std::size_t n,
                        const std::string& where, std::size_t block) {
  for (const Triplet& t : a.entries) {
    if (t.r > t.c) {
      chk.fail("triplet-canonical", where, ": triplet (", t.r, ",", t.c, ") in block ",
               block, " is not upper-triangular");
    }
    if (t.r >= n || t.c >= n) {
      chk.fail("triplet-range", where, ": triplet (", t.r, ",", t.c, ") outside block ",
               block, " of size ", n);
    }
    if (!std::isfinite(t.v)) {
      chk.fail("finite", where, ": triplet (", t.r, ",", t.c, ") in block ", block,
               " has value ", t.v);
    }
  }
  // Duplicate positions would double-count in every <A, X> inner product.
  std::vector<std::pair<std::size_t, std::size_t>> pos;
  pos.reserve(a.entries.size());
  for (const Triplet& t : a.entries) pos.emplace_back(t.r, t.c);
  std::sort(pos.begin(), pos.end());
  for (std::size_t i = 1; i < pos.size(); ++i) {
    if (pos[i] == pos[i - 1]) {
      chk.fail("triplet-canonical", where, ": duplicate triplet position (", pos[i].first,
               ",", pos[i].second, ") in block ", block);
    }
  }
}

void check_rows(Checker& chk, const Problem& p) {
  for (std::size_t i = 0; i < p.num_rows(); ++i) {
    const Row& row = p.rows()[i];
    const std::string where = "row " + std::to_string(i);
    if (!std::isfinite(row.rhs)) chk.fail("finite", where, ": rhs is ", row.rhs);
    for (const auto& [j, a] : row.blocks) {
      if (j >= p.num_blocks()) {
        chk.fail("block-range", where, ": references block ", j, " of ", p.num_blocks());
        continue;
      }
      check_sparse_coeff(chk, a, p.block_size(j), where, j);
    }
    for (const auto& [v, coeff] : row.free_coeffs) {
      if (v >= p.num_free()) {
        chk.fail("free-range", where, ": references free var ", v, " of ", p.num_free());
      }
      if (!std::isfinite(coeff)) {
        chk.fail("finite", where, ": free var ", v, " coefficient is ", coeff);
      }
    }
  }
}

void check_objectives(Checker& chk, const Problem& p) {
  for (std::size_t j = 0; j < p.num_blocks(); ++j)
    check_sparse_coeff(chk, p.block_objective(j), p.block_size(j), "objective", j);
  for (std::size_t v = 0; v < p.num_free(); ++v) {
    if (!std::isfinite(p.free_objective()[v])) {
      chk.fail("finite", "free objective ", v, " is ", p.free_objective()[v]);
    }
  }
}

/// The clique trees of a decomposed lowering (map.plans) against the
/// problem they were lowered into, and the overlap rows that tie the clique
/// copies together: the rows [map.original_rows, num_rows), each a zero-rhs
/// difference of one separator entry between a clique and its parent.
void check_cliques(Checker& chk, const Problem& p, const ChordalMap& map) {
  constexpr std::size_t kNoPlan = static_cast<std::size_t>(-1);
  // Clique blocks must be bijectively assigned: no problem block may hold
  // two cliques' PSD copies, or a clique's and a kept block's.
  std::vector<std::size_t> plan_of_block(p.num_blocks(), kNoPlan);
  std::vector<bool> block_claimed(p.num_blocks(), false);
  for (const std::size_t cb : map.block_map) {
    if (cb < p.num_blocks()) block_claimed[cb] = true;
  }
  std::size_t expected_overlaps = 0;

  for (std::size_t pi = 0; pi < map.plans.size(); ++pi) {
    const BlockPlan& plan = map.plans[pi];
    const std::vector<std::vector<std::size_t>>& cliques = plan.forest.cliques;
    const std::vector<std::size_t>& parents = plan.forest.parent;
    const std::string where = "plan " + std::to_string(pi);
    const std::size_t n = plan.original_size;
    const std::size_t nk = cliques.size();
    if (n == 0 || nk == 0 || parents.size() != nk || plan.converted_block.size() != nk) {
      chk.fail("clique-plan", where, ": original size ", n, ", ", nk, " clique(s), ",
               parents.size(), " parent(s), ", plan.converted_block.size(),
               " clique block(s)");
      continue;
    }
    std::vector<bool> covered(n, false);
    std::vector<bool> seen(n, false);  // vertices of cliques [0, k)

    for (std::size_t k = 0; k < nk; ++k) {
      const std::vector<std::size_t>& clique = cliques[k];
      const std::string cwhere = where + " clique " + std::to_string(k);
      if (clique.empty()) {
        chk.fail("clique-vertices", cwhere, ": no vertices");
        continue;
      }
      bool vertices_ok = true;
      for (std::size_t a = 0; a < clique.size(); ++a) {
        const std::size_t v = clique[a];
        if (v >= n) {
          chk.fail("clique-vertices", cwhere, ": vertex ", v, " outside block of size ", n);
          vertices_ok = false;
          break;
        }
        if (a > 0 && clique[a - 1] >= v) {
          chk.fail("clique-vertices", cwhere, ": vertices not strictly ascending at ",
                   clique[a - 1], ", ", v);
          vertices_ok = false;
          break;
        }
      }
      // The canonical entry map of a clique IS (block, vertices): the block
      // holds the clique-local copy, the vertex list maps local<->global.
      // Consistency = block exists, its dimension equals the clique size,
      // and no other clique claims it.
      const std::size_t cb = plan.converted_block[k];
      if (cb >= p.num_blocks()) {
        chk.fail("clique-block", cwhere, ": block ", cb, " of ", p.num_blocks());
      } else {
        if (p.block_size(cb) != clique.size()) {
          chk.fail("clique-block", cwhere, ": block ", cb, " has size ", p.block_size(cb),
                   " but the clique has ", clique.size(), " vertices");
        }
        if (block_claimed[cb]) {
          chk.fail("clique-block", cwhere, ": block ", cb, " already holds another copy");
        }
        block_claimed[cb] = true;
        plan_of_block[cb] = pi;
      }
      if (!vertices_ok) continue;
      for (const std::size_t v : clique) covered[v] = true;

      // Clique-tree shape: parent in range; RIP preorder wants non-root
      // parents strictly earlier. (Cycle detection runs over the whole
      // parent array below — a cyclic tree also breaks the order here, but
      // the dedicated walk names the cycle.)
      const std::size_t parent = parents[k];
      if (parent >= nk) {
        chk.fail("clique-parent", cwhere, ": parent ", parent, " of ", nk);
      } else if (parent != k) {
        // One overlap row per separator entry pair (a <= b).
        std::vector<std::size_t> sep;
        std::set_intersection(clique.begin(), clique.end(), cliques[parent].begin(),
                              cliques[parent].end(), std::back_inserter(sep));
        expected_overlaps += sep.size() * (sep.size() + 1) / 2;
        if (parent > k) {
          chk.fail("clique-tree-order", cwhere, ": parent ", parent,
                   " does not precede its child (RIP preorder)");
        } else {
          // Running intersection: everything this clique shares with any
          // earlier clique must live in the parent — that is what makes
          // tree-edge overlap rows chain every copy of an entry, and what
          // the completion walk relies on.
          for (const std::size_t v : clique) {
            if (!seen[v]) continue;
            if (!std::binary_search(cliques[parent].begin(), cliques[parent].end(), v)) {
              chk.fail("clique-rip", cwhere, ": shared vertex ", v,
                       " is not in parent clique ", parent);
              break;
            }
          }
        }
      }
      for (const std::size_t v : clique) seen[v] = true;
    }

    for (std::size_t v = 0; v < n; ++v) {
      if (!covered[v]) {
        chk.fail("clique-cover", where, ": vertex ", v, " is in no clique");
        break;
      }
    }

    // Acyclicity: following parents from any clique must reach a root
    // (parent == self) within nk steps.
    for (std::size_t k = 0; k < nk; ++k) {
      std::size_t cur = k, steps = 0;
      while (steps <= nk && cur < nk && parents[cur] != cur) {
        cur = parents[cur];
        ++steps;
      }
      if (cur < nk && steps > nk) {
        chk.fail("clique-tree-cycle", where, ": parent walk from clique ", k,
                 " never reaches a root");
        break;
      }
    }
  }

  // Overlap rows: zero-rhs differences that tie two copies of one entry in
  // two clique blocks of the same plan. A missing row leaves two copies
  // free to disagree, so the completion would not be PSD.
  if (map.original_rows > p.num_rows() ||
      p.num_rows() - map.original_rows != expected_overlaps) {
    chk.fail("overlap-count", p.num_rows(), " rows after the ", map.original_rows,
             " original ones, the clique trees tie ", expected_overlaps, " entries");
    if (map.original_rows > p.num_rows()) return;
  }
  for (std::size_t i = map.original_rows; i < p.num_rows(); ++i) {
    const Row& row = p.rows()[i];
    const std::string where = "overlap row " + std::to_string(i);
    if (row.rhs != 0.0) chk.fail("overlap-rhs", where, ": rhs is ", row.rhs);
    if (!row.free_coeffs.empty()) {
      chk.fail("overlap-free", where, ": touches ", row.free_coeffs.size(),
               " free variable(s)");
    }
    if (row.blocks.empty()) chk.fail("overlap-empty", where, ": no coefficients");
    // Pair shape: each overlap row ties exactly two clique copies (child,
    // parent) with entry-aligned coefficients. A lopsided or many-sided row
    // is no longer the ±w difference of one entry.
    if (!row.blocks.empty() && row.blocks.size() != 2) {
      chk.fail("overlap-pair", where, ": couples ", row.blocks.size(),
               " block(s), expected exactly 2 (child, parent)");
    } else if (row.blocks.size() == 2) {
      const auto first = row.blocks.begin();
      const auto second = std::next(first);
      if (first->second.entries.size() != second->second.entries.size()) {
        chk.fail("overlap-pair", where, ": sides carry ", first->second.entries.size(),
                 " vs ", second->second.entries.size(), " entries (copies must pair 1:1)");
      }
    }
    const std::size_t plan = row.blocks.empty() || row.blocks.begin()->first >= p.num_blocks()
                                 ? kNoPlan
                                 : plan_of_block[row.blocks.begin()->first];
    for (const auto& [j, a] : row.blocks) {
      if (plan == kNoPlan || j >= p.num_blocks() || plan_of_block[j] != plan) {
        chk.fail("overlap-block", where, ": references block ", j,
                 " which is not a clique block of one plan");
        break;
      }
    }
  }
}

void check_structure(Checker& chk, const Problem& p, const ProblemStructure& s) {
  if (!s.compatible_with(p)) {
    chk.fail("structure-shape", "structure built for ", s.num_rows, " rows / ",
             s.rows_touching_block.size(), " blocks, problem has ", p.num_rows(), " / ",
             p.num_blocks());
    return;  // the incidence comparison below would index out of range
  }
  const std::uint64_t fp = structure_fingerprint(p);
  if (fp != s.fingerprint) {
    chk.fail("fingerprint-stale", "recomputed fingerprint ", fp,
             " does not match the stamped ", s.fingerprint);
  }
  // The cached row→block incidence is what the hot loops iterate; a drifted
  // pattern reads the wrong rows without ever going out of bounds.
  const ProblemStructure fresh = build_structure(p, fp);
  for (std::size_t j = 0; j < p.num_blocks(); ++j) {
    if (fresh.rows_touching_block[j] != s.rows_touching_block[j]) {
      chk.fail("structure-incidence", "block ", j, ": cached incidence lists ",
               s.rows_touching_block[j].size(), " row(s), recomputation finds ",
               fresh.rows_touching_block[j].size(), " (or different rows)");
    }
  }

  // Provenance: the pass chain must be a monotone walk through the pipeline
  // (analyze → decompose → lower → equilibrate, or the cache's update →
  // equilibrate), stamping the base fingerprint before the lowering and the
  // lowered fingerprint from the lower/update pass on.
  const auto& prov = s.provenance;
  for (std::size_t i = 0; i < prov.size(); ++i) {
    const PassRecord& rec = prov[i];
    const int rank = pass_rank(rec.name);
    if (rank < 0) {
      chk.fail("provenance-name", "pass record ", i, " has unknown name '", rec.name, "'");
      continue;
    }
    if (i > 0) {
      const int prev = pass_rank(prov[i - 1].name);
      if (prev >= 0 && rank <= prev) {
        chk.fail("provenance-order", "pass '", rec.name, "' (record ", i,
                 ") does not follow '", prov[i - 1].name, "' in pipeline order");
      }
    }
    if (rec.seconds < 0.0 || !std::isfinite(rec.seconds)) {
      chk.fail("provenance-time", "pass '", rec.name, "' records ", rec.seconds, "s");
    }
    const bool pre_lowering = rec.name == "analyze" || rec.name == "decompose";
    const std::uint64_t expected =
        pre_lowering && s.base_fingerprint != 0 ? s.base_fingerprint : s.fingerprint;
    if (rec.fingerprint != expected) {
      chk.fail("provenance-fingerprint", "pass '", rec.name, "' stamped fingerprint ",
               rec.fingerprint, ", expected ", expected);
    }
  }
  if (!prov.empty()) {
    if (prov.front().name != "analyze" && prov.front().name != "update") {
      chk.fail("provenance-order", "provenance starts with '", prov.front().name,
               "', expected 'analyze' or 'update'");
    }
    if (prov.back().name != "equilibrate") {
      chk.fail("provenance-order", "provenance ends with '", prov.back().name,
               "', expected 'equilibrate'");
    }
  }
}

}  // namespace

VerifyResult verify(const Problem& p, const ProblemStructure* structure,
                    const ChordalMap* map) {
  VerifyResult out;
  Checker chk(out);
  check_objectives(chk, p);
  check_rows(chk, p);
  if (map != nullptr && !map->identity()) check_cliques(chk, p, *map);
  if (structure != nullptr) {
    if (!structure->provenance.empty()) out.pass = structure->provenance.back().name;
    check_structure(chk, p, *structure);
  }
  return out;
}

void verify_pass_or_throw(const Problem& p, std::uint64_t expected_fingerprint,
                          const char* pass, const ProblemStructure* structure,
                          const ChordalMap* map) {
  VerifyResult result = verify(p, structure, map);
  result.pass = pass;
  if (expected_fingerprint != 0) {
    const std::uint64_t fp = structure_fingerprint(p);
    if (fp != expected_fingerprint) {
      result.violations.push_back(
          {"fingerprint-stale",
           "recomputed fingerprint " + std::to_string(fp) + " does not match the stamped " +
               std::to_string(expected_fingerprint)});
    }
  }
  if (!result.ok()) throw std::logic_error(result.str());
}

}  // namespace soslock::sdp
