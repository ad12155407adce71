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

void check_cones(Checker& chk, const Problem& p) {
  // Clique blocks must be bijectively assigned: no problem block may hold
  // two cliques' PSD copies (across all cones).
  std::vector<bool> block_claimed(p.num_blocks(), false);

  for (std::size_t ci = 0; ci < p.cones().size(); ++ci) {
    const DecomposedCone& cone = p.cones()[ci];
    const std::string where = "cone " + std::to_string(ci);
    if (cone.original_size == 0 || cone.cliques.empty()) {
      chk.fail("cone-empty", where, ": original size ", cone.original_size, ", ",
               cone.cliques.size(), " clique(s)");
      continue;
    }
    const std::size_t n = cone.original_size;
    const std::size_t nk = cone.cliques.size();
    std::vector<bool> covered(n, false);
    std::vector<bool> seen(n, false);  // vertices of cliques [0, k)

    for (std::size_t k = 0; k < nk; ++k) {
      const CliqueInfo& clique = cone.cliques[k];
      const std::string cwhere = where + " clique " + std::to_string(k);
      if (clique.vertices.empty()) {
        chk.fail("clique-vertices", cwhere, ": no vertices");
        continue;
      }
      bool vertices_ok = true;
      for (std::size_t a = 0; a < clique.vertices.size(); ++a) {
        const std::size_t v = clique.vertices[a];
        if (v >= n) {
          chk.fail("clique-vertices", cwhere, ": vertex ", v, " outside cone of size ", n);
          vertices_ok = false;
          break;
        }
        if (a > 0 && clique.vertices[a - 1] >= v) {
          chk.fail("clique-vertices", cwhere, ": vertices not strictly ascending at ",
                   clique.vertices[a - 1], ", ", v);
          vertices_ok = false;
          break;
        }
      }
      // The canonical entry map of a clique IS (block, vertices): the block
      // holds the clique-local copy, the vertex list maps local<->global.
      // Consistency = block exists, its dimension equals the clique size,
      // and no other clique claims it.
      if (clique.block >= p.num_blocks()) {
        chk.fail("clique-block", cwhere, ": block ", clique.block, " of ", p.num_blocks());
      } else {
        if (p.block_size(clique.block) != clique.vertices.size()) {
          chk.fail("clique-block", cwhere, ": block ", clique.block, " has size ",
                   p.block_size(clique.block), " but the clique has ",
                   clique.vertices.size(), " vertices");
        }
        if (block_claimed[clique.block]) {
          chk.fail("clique-block", cwhere, ": block ", clique.block,
                   " already holds another clique's copy");
        }
        block_claimed[clique.block] = true;
      }
      if (!vertices_ok) continue;
      for (const std::size_t v : clique.vertices) covered[v] = true;

      // Clique-tree shape: parent in range; RIP preorder wants non-root
      // parents strictly earlier. (Cycle detection runs over the whole
      // parent array below — a cyclic tree also breaks the order here, but
      // the dedicated walk names the cycle.)
      if (clique.parent >= nk) {
        chk.fail("clique-parent", cwhere, ": parent ", clique.parent, " of ", nk);
      } else if (clique.parent != k) {
        if (clique.parent > k) {
          chk.fail("clique-tree-order", cwhere, ": parent ", clique.parent,
                   " does not precede its child (RIP preorder)");
        } else {
          // Running intersection: everything this clique shares with any
          // earlier clique must live in the parent — that is what makes
          // tree-edge overlap couplings chain every copy of an entry, and
          // what the completion/warm-remap walks rely on.
          const CliqueInfo& parent = cone.cliques[clique.parent];
          for (const std::size_t v : clique.vertices) {
            if (!seen[v]) continue;
            if (!std::binary_search(parent.vertices.begin(), parent.vertices.end(), v)) {
              chk.fail("clique-rip", cwhere, ": shared vertex ", v,
                       " is not in parent clique ", clique.parent);
              break;
            }
          }
        }
      }
      for (const std::size_t v : clique.vertices) seen[v] = true;
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
      while (steps <= nk && cur < nk && cone.cliques[cur].parent != cur) {
        cur = cone.cliques[cur].parent;
        ++steps;
      }
      if (cur < nk && steps > nk) {
        chk.fail("clique-tree-cycle", where, ": parent walk from clique ", k,
                 " never reaches a root");
        break;
      }
    }

    // Overlap couplings: zero-rhs difference rows whose entries address the
    // cone's own clique blocks. They become the virtual rows [m, m + q), so
    // an invalid index here is an out-of-range read in both backends' panel
    // machinery.
    std::vector<bool> is_clique_block(p.num_blocks(), false);
    for (const CliqueInfo& clique : cone.cliques) {
      if (clique.block < p.num_blocks()) is_clique_block[clique.block] = true;
    }
    for (std::size_t o = 0; o < cone.overlaps.size(); ++o) {
      const Row& row = cone.overlaps[o];
      const std::string owhere = where + " overlap " + std::to_string(o);
      if (row.rhs != 0.0) chk.fail("overlap-rhs", owhere, ": rhs is ", row.rhs);
      if (!row.free_coeffs.empty()) {
        chk.fail("overlap-free", owhere, ": touches ", row.free_coeffs.size(),
                 " free variable(s)");
      }
      if (row.blocks.empty()) chk.fail("overlap-empty", owhere, ": no coefficients");
      // Pair shape: each coupling ties exactly two clique copies (child,
      // parent) with entry-aligned coefficients. A lopsided or many-sided
      // row breaks the ±w difference semantics the ADMM and IPM overlap
      // multipliers are built on.
      if (!row.blocks.empty() && row.blocks.size() != 2) {
        chk.fail("overlap-pair", owhere, ": couples ", row.blocks.size(),
                 " block(s), expected exactly 2 (child, parent)");
      } else if (row.blocks.size() == 2) {
        const auto first = row.blocks.begin();
        const auto second = std::next(first);
        if (first->second.entries.size() != second->second.entries.size()) {
          chk.fail("overlap-pair", owhere, ": sides carry ",
                   first->second.entries.size(), " vs ", second->second.entries.size(),
                   " entries (copies must pair 1:1)");
        }
      }
      for (const auto& [j, a] : row.blocks) {
        if (j >= p.num_blocks() || !is_clique_block[j]) {
          chk.fail("overlap-block", owhere, ": references block ", j,
                   " which is not a clique block of this cone");
          continue;
        }
        check_sparse_coeff(chk, a, p.block_size(j), owhere, j);
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

VerifyResult verify(const Problem& p, const ProblemStructure* structure) {
  VerifyResult out;
  Checker chk(out);
  check_objectives(chk, p);
  check_rows(chk, p);
  check_cones(chk, p);
  if (structure != nullptr) {
    if (!structure->provenance.empty()) out.pass = structure->provenance.back().name;
    check_structure(chk, p, *structure);
  }
  return out;
}

void verify_pass_or_throw(const Problem& p, std::uint64_t expected_fingerprint,
                          const char* pass, const ProblemStructure* structure) {
  VerifyResult result = verify(p, structure);
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
