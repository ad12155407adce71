// Tests for the debug-mode lowering verifier (sdp/verify): a clean pipeline
// output verifies, and every deliberately seeded corruption — out-of-range
// triplet, tampered clique entry map, NaN objective, stale fingerprint,
// cyclic clique-tree parent array, malformed overlap row — is caught with
// the offending pass named in the thrown report. Plus the TSan-targeted stress test: eight sweep
// lanes, each with its own LoweringCache, hammering the shared
// StructureCache::global() under eviction churn while a telemetry thread
// polls the counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "sdp/lowering.hpp"
#include "sdp/structure.hpp"
#include "sdp/verify.hpp"

namespace soslock {
namespace {

using linalg::Matrix;
using sdp::Lowering;
using sdp::LoweringCache;
using sdp::LoweringOptions;
using sdp::Problem;
using sdp::VerifyResult;

/// Feasible banded min-trace SDP (same shape family as lowering_test):
/// banded coefficients so chordal decomposition splits the block, `scale`
/// perturbing values only (structurally identical problems for the cache
/// stress test), `drop_entry` changing the triplet set itself.
Problem banded_sdp(std::size_t n, double scale = 1.0, bool drop_entry = false) {
  Problem p;
  const std::size_t blk = p.add_block(n);
  p.set_block_objective(blk, sdp::SparseSym::diagonal(n, 1.0));
  Matrix xstar(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    xstar(i, i) = scale * (2.0 + 0.1 * static_cast<double>(i % 3));
    if (i + 1 < n) {
      xstar(i, i + 1) = 0.7 * scale;
      xstar(i + 1, i) = 0.7 * scale;
    }
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sdp::Row row;
    sdp::SparseSym a;
    a.add(i, i, scale);
    a.add(i, i + 1,
          i == 0 && drop_entry ? 0.0 : scale * (0.5 + 0.1 * static_cast<double>(i % 2)));
    a.add(i + 1, i + 1, -0.3 * scale);
    Matrix dense(n, n);
    a.add_to(dense);
    row.rhs = linalg::dot(dense, xstar);
    row.blocks[blk] = std::move(a);
    p.add_row(std::move(row));
  }
  return p;
}

LoweringOptions chordal_lowering(std::size_t min_block_size) {
  LoweringOptions low;
  low.sparsity = sdp::SparsityOptions::Chordal;
  low.chordal.min_block_size = min_block_size;
  return low;
}

/// A decomposed lowering of the banded SDP plus its cached structure — the
/// starting point every corruption test tampers with.
struct LoweredFixture {
  Lowering low;
  std::shared_ptr<const sdp::ProblemStructure> structure;
};

LoweredFixture lowered_banded() {
  LoweredFixture f;
  f.low = sdp::lower(banded_sdp(30), chordal_lowering(8));
  f.structure = sdp::StructureCache::global().find(f.low.lowered_fingerprint);
  return f;
}

/// The clique-tree and overlap-row checks: the fixture's problem against
/// its lowering's map, as the post-lower hook runs them.
VerifyResult verify_map(const LoweredFixture& f) {
  return sdp::verify(f.low.problem, nullptr, &f.low.map);
}

TEST(Verify, CleanPipelineOutputVerifies) {
  LoweredFixture f = lowered_banded();
  ASSERT_TRUE(f.low.decomposed());
  ASSERT_NE(f.structure, nullptr);
  const VerifyResult result = sdp::verify(f.low.problem, f.structure.get());
  EXPECT_TRUE(result.ok()) << result.str();
  // The result names the pass that produced the problem (last provenance).
  EXPECT_EQ(result.pass, "equilibrate");
  // The hook body passes on a clean problem in every build type.
  EXPECT_NO_THROW(sdp::verify_pass_or_throw(f.low.problem, f.low.lowered_fingerprint,
                                            "equilibrate", f.structure.get()));
}

TEST(Verify, CleanIdentityLoweringVerifies) {
  const Lowering low = sdp::lower(banded_sdp(12), LoweringOptions{});
  const auto structure = sdp::StructureCache::global().find(low.lowered_fingerprint);
  ASSERT_NE(structure, nullptr);
  const VerifyResult result = sdp::verify(low.problem, structure.get());
  EXPECT_TRUE(result.ok()) << result.str();
}

TEST(Verify, OutOfRangeTripletCaughtWithPassNamed) {
  LoweredFixture f = lowered_banded();
  // Bypass SparseSym::add (which canonicalizes) and plant a raw triplet
  // outside its block — the corruption a buggy in-place update would leave.
  auto& row = f.low.problem.mutable_rows()[0];
  auto& coeff = row.blocks.begin()->second;
  const std::size_t n = f.low.problem.block_size(row.blocks.begin()->first);
  coeff.entries.push_back({n + 3, n + 5, 1.0});

  const VerifyResult result = sdp::verify(f.low.problem);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has("triplet-range")) << result.str();

  try {
    sdp::verify_pass_or_throw(f.low.problem, f.low.lowered_fingerprint, "update");
    FAIL() << "corrupted problem passed verification";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("after pass 'update'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("triplet-range"), std::string::npos) << e.what();
  }
}

TEST(Verify, NonCanonicalTripletCaught) {
  LoweredFixture f = lowered_banded();
  auto& coeff = f.low.problem.mutable_rows()[0].blocks.begin()->second;
  ASSERT_FALSE(coeff.entries.empty());
  // Lower-triangular entry: within range but violating r <= c.
  coeff.entries.push_back({1, 0, 0.5});
  const VerifyResult result = sdp::verify(f.low.problem);
  EXPECT_TRUE(result.has("triplet-canonical")) << result.str();

  // Duplicate position: double-counts in every inner product.
  coeff.entries.pop_back();
  coeff.entries.push_back(coeff.entries.front());
  const VerifyResult dup = sdp::verify(f.low.problem);
  EXPECT_TRUE(dup.has("triplet-canonical")) << dup.str();
}

TEST(Verify, TamperedCliqueEntryMapCaught) {
  LoweredFixture f = lowered_banded();
  ASSERT_FALSE(f.low.map.plans.empty());
  sdp::BlockPlan& plan = f.low.map.plans[0];
  ASSERT_GE(plan.forest.cliques.size(), 2u);
  EXPECT_TRUE(verify_map(f).ok()) << verify_map(f).str();

  // Point one clique's entry map at another clique's block: the map is no
  // longer bijective, so two cliques would read/write one PSD copy.
  const std::size_t saved = plan.converted_block[1];
  plan.converted_block[1] = plan.converted_block[0];
  VerifyResult result = verify_map(f);
  EXPECT_TRUE(result.has("clique-block")) << result.str();
  plan.converted_block[1] = saved;

  // Vertex outside the original block: the completion would index out of it.
  const std::size_t saved_v = plan.forest.cliques[0].back();
  plan.forest.cliques[0].back() = plan.original_size + 7;
  result = verify_map(f);
  EXPECT_TRUE(result.has("clique-vertices")) << result.str();
  plan.forest.cliques[0].back() = saved_v;

  // Vertex 0 dropped from every clique that holds it: no clique covers it.
  const std::vector<std::vector<std::size_t>> saved_cliques = plan.forest.cliques;
  for (std::vector<std::size_t>& clique : plan.forest.cliques)
    clique.erase(std::remove(clique.begin(), clique.end(), 0u), clique.end());
  result = verify_map(f);
  EXPECT_TRUE(result.has("clique-cover")) << result.str();
  plan.forest.cliques = saved_cliques;

  EXPECT_TRUE(verify_map(f).ok());
}

TEST(Verify, NaNObjectiveCaughtWithPassNamed) {
  LoweredFixture f = lowered_banded();
  sdp::SparseSym c = f.low.problem.block_objective(0);
  c.add(0, 0, std::numeric_limits<double>::quiet_NaN());
  f.low.problem.set_block_objective(0, std::move(c));
  const VerifyResult result = sdp::verify(f.low.problem);
  EXPECT_TRUE(result.has("finite")) << result.str();

  try {
    sdp::verify_pass_or_throw(f.low.problem, f.low.lowered_fingerprint, "equilibrate");
    FAIL() << "NaN objective passed verification";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("after pass 'equilibrate'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos) << e.what();
  }
}

TEST(Verify, NaNRhsAndOutOfRangeObjectiveCaught) {
  LoweredFixture f = lowered_banded();
  f.low.problem.mutable_rows()[2].rhs = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(sdp::verify(f.low.problem).has("finite"));
  f.low.problem.mutable_rows()[2].rhs = 0.0;

  // Objectives are triplets like every row coefficient, and are range-checked
  // the same way.
  sdp::SparseSym c = f.low.problem.block_objective(0);
  c.add(0, f.low.problem.block_size(0), 1.0);
  f.low.problem.set_block_objective(0, std::move(c));
  const VerifyResult result = sdp::verify(f.low.problem);
  EXPECT_TRUE(result.has("triplet-range")) << result.str();
}

TEST(Verify, StaleFingerprintCaughtWithPassNamed) {
  LoweredFixture f = lowered_banded();
  ASSERT_NE(f.structure, nullptr);
  // Move a triplet to a different (still canonical, in-range) position: the
  // shape is unchanged but the structure fingerprint is position-sensitive,
  // so the stamped structure no longer describes this problem.
  auto& coeff = f.low.problem.mutable_rows()[0].blocks.begin()->second;
  ASSERT_FALSE(coeff.entries.empty());
  coeff.entries.front().c += 1;

  const VerifyResult result = sdp::verify(f.low.problem, f.structure.get());
  EXPECT_TRUE(result.has("fingerprint-stale")) << result.str();

  try {
    sdp::verify_pass_or_throw(f.low.problem, f.low.lowered_fingerprint, "lower");
    FAIL() << "stale fingerprint passed verification";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("after pass 'lower'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("fingerprint-stale"), std::string::npos)
        << e.what();
  }
}

TEST(Verify, CyclicCliqueTreeParentCaught) {
  LoweredFixture f = lowered_banded();
  std::vector<std::size_t>& parent = f.low.map.plans[0].forest.parent;
  ASSERT_GE(parent.size(), 2u);
  // Two cliques pointing at each other: a completion walk along the "tree"
  // never terminates.
  parent[0] = 1;
  parent[1] = 0;
  const VerifyResult result = verify_map(f);
  EXPECT_TRUE(result.has("clique-tree-cycle")) << result.str();
}

TEST(Verify, RipViolationAndBadParentCaught) {
  LoweredFixture f = lowered_banded();
  std::vector<std::size_t>& parent = f.low.map.plans[0].forest.parent;
  ASSERT_GE(parent.size(), 2u);

  const std::size_t saved = parent[1];
  parent[1] = parent.size() + 4;
  EXPECT_TRUE(verify_map(f).has("clique-parent"));
  parent[1] = saved;

  // Reparent a non-root clique onto a disjoint one: the vertices it shares
  // with earlier cliques are no longer in its parent (RIP broken), so the
  // overlap rows no longer chain every copy of the shared entries.
  const std::size_t nk = parent.size();
  ASSERT_GE(nk, 3u);
  const std::size_t last = nk - 1;
  if (parent[last] != last) {
    parent[last] = 0;  // cliques 0 and last are disjoint in a long band
    EXPECT_TRUE(verify_map(f).has("clique-rip"));
  }
}

TEST(Verify, OverlapPairShapeMismatchCaught) {
  LoweredFixture f = lowered_banded();
  const sdp::BlockPlan& plan = f.low.map.plans[0];
  std::vector<sdp::Row>& rows = f.low.problem.mutable_rows();
  ASSERT_GT(rows.size(), f.low.map.original_rows);
  sdp::Row& overlap = rows[f.low.map.original_rows];
  ASSERT_EQ(overlap.blocks.size(), 2u);

  // Copies no longer pair 1:1: one side of the tie lost its entry, so the
  // ±w difference no longer compares matching separator entries.
  const sdp::SparseSym saved = overlap.blocks.begin()->second;
  ASSERT_FALSE(saved.entries.empty());
  overlap.blocks.begin()->second.entries.pop_back();
  EXPECT_TRUE(verify_map(f).has("overlap-pair"));
  overlap.blocks.begin()->second = saved;

  // A three-sided tie: each overlap row pairs exactly (child, parent).
  ASSERT_GE(plan.converted_block.size(), 3u);
  std::size_t third = plan.converted_block[2];
  if (overlap.blocks.count(third) != 0) third = plan.converted_block[1];
  ASSERT_EQ(overlap.blocks.count(third), 0u);
  overlap.blocks[third] = saved;
  EXPECT_TRUE(verify_map(f).has("overlap-pair"));
  overlap.blocks.erase(third);

  // A nonzero rhs or a free variable: no longer a tie between two copies.
  overlap.rhs = 0.5;
  EXPECT_TRUE(verify_map(f).has("overlap-rhs"));
  overlap.rhs = 0.0;
  f.low.problem.add_free(0.0);
  overlap.free_coeffs[0] = 1.0;
  EXPECT_TRUE(verify_map(f).has("overlap-free"));
  overlap.free_coeffs.clear();

  // A dropped overlap row leaves two copies free to disagree.
  const sdp::Row last = rows.back();
  rows.pop_back();
  EXPECT_TRUE(verify_map(f).has("overlap-count"));
  rows.push_back(last);

  EXPECT_TRUE(verify_map(f).ok());
}

TEST(Verify, TamperedProvenanceCaught) {
  LoweredFixture f = lowered_banded();
  ASSERT_NE(f.structure, nullptr);
  ASSERT_GE(f.structure->provenance.size(), 4u);
  // Out-of-order pass chain: equilibrate before lower.
  sdp::ProblemStructure tampered = *f.structure;
  std::swap(tampered.provenance[2], tampered.provenance[3]);
  EXPECT_TRUE(sdp::verify(f.low.problem, &tampered).has("provenance-order"));

  // Unknown pass name.
  tampered = *f.structure;
  tampered.provenance[1].name = "transmogrify";
  EXPECT_TRUE(sdp::verify(f.low.problem, &tampered).has("provenance-name"));
}

TEST(Verify, ZeroExpectedFingerprintSkipsTheStaleCheck) {
  LoweredFixture f = lowered_banded();
  EXPECT_NO_THROW(sdp::verify_pass_or_throw(f.low.problem, 0, "analyze"));
}

// TSan-targeted stress test: eight sweep lanes, each owning a LoweringCache
// (the documented ownership model), all hammering the process-global
// StructureCache with a small capacity so hits, misses, evictions and the
// LRU reshuffle race for the lock, while a telemetry thread concurrently
// polls the lane caches' atomic counters and the shared cache's snapshot.
// Run under -fsanitize=thread this proves the counter discipline; in a
// plain build it still exercises the lock paths.
TEST(VerifyStress, ConcurrentLoweringAndStructureCacheTelemetry) {
  auto& cache = sdp::StructureCache::global();
  const std::size_t saved_capacity = cache.capacity();
  cache.set_capacity(3);  // force eviction churn across lanes

  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kIters = 24;
  std::vector<LoweringCache> lanes(kLanes);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> failures{0};

  std::thread telemetry([&] {
    std::size_t polls = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::size_t updates = 0, fulls = 0;
      for (const LoweringCache& lane : lanes) {
        updates += lane.updates();
        fulls += lane.full_lowerings();
      }
      const sdp::StructureCacheTelemetry t = cache.telemetry();
      if (t.entries > t.capacity || updates + fulls > kLanes * kIters) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      ++polls;
      std::this_thread::yield();
    }
    (void)polls;
  });

  std::vector<std::thread> workers;
  workers.reserve(kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    workers.emplace_back([&, lane] {
      // Three structurally distinct shapes across the lanes so the 3-slot
      // global cache thrashes; a lane keeps one shape, so its repeated
      // value-only re-solves take the in-place update fast path (identity
      // lowerings, as every sweep lane's SOS programs lower).
      for (std::size_t it = 0; it < kIters; ++it) {
        const std::size_t n = 18 + 2 * (lane % 3);
        const double scale = 1.0 + 0.01 * static_cast<double>(it);
        const Lowering& low = lanes[lane].lower(banded_sdp(n, scale), LoweringOptions{});
        const VerifyResult result = sdp::verify(low.problem);
        if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        if (cache.get(low.problem) == nullptr) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_release);
  telemetry.join();

  EXPECT_EQ(failures.load(), 0u);
  std::size_t updates = 0;
  for (const LoweringCache& lane : lanes) updates += lane.updates();
  EXPECT_GT(updates, 0u);  // the fast path actually ran
  cache.set_capacity(saved_capacity);
}

}  // namespace
}  // namespace soslock
