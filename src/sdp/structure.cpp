#include "sdp/structure.hpp"

#include "util/fault.hpp"

namespace soslock::sdp {
namespace {

/// FNV-1a, 64-bit.
struct Hasher {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

std::uint64_t structure_fingerprint(const Problem& p) {
  Hasher hash;
  hash.mix(p.num_blocks());
  for (std::size_t j = 0; j < p.num_blocks(); ++j) hash.mix(p.block_size(j));
  hash.mix(p.num_free());
  hash.mix(p.num_rows());
  for (const Row& row : p.rows()) {
    hash.mix(0x526f77ull);  // row marker
    for (const auto& [j, a] : row.blocks) {
      hash.mix(j);
      hash.mix(a.entries.size());
      for (const Triplet& t : a.entries) {
        hash.mix(t.r);
        hash.mix(t.c);
      }
    }
    hash.mix(0x46726565ull);  // free marker
    for (const auto& [v, c] : row.free_coeffs) hash.mix(v);
  }
  return hash.h;
}

ProblemStructure build_structure(const Problem& p) {
  return build_structure(p, structure_fingerprint(p));
}

ProblemStructure build_structure(const Problem& p, std::uint64_t fingerprint) {
  ProblemStructure s;
  s.fingerprint = fingerprint;
  s.num_rows = p.num_rows();
  s.rows_touching_block.assign(p.num_blocks(), {});
  for (std::size_t i = 0; i < p.num_rows(); ++i)
    for (const auto& [j, a] : p.rows()[i].blocks) s.rows_touching_block[j].push_back(i);
  return s;
}

std::shared_ptr<const ProblemStructure> StructureCache::get(const Problem& p) const {
  const std::uint64_t fp = structure_fingerprint(p);
  {
    const util::MutexLock lock(mutex_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i]->fingerprint != fp) continue;
      if (!slots_[i]->compatible_with(p)) {
        // Fingerprint collision: serving this slot would hand the backend
        // row indices into a different problem. Drop it and rebuild below.
        slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      auto hit = slots_[i];
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
      slots_.insert(slots_.begin(), hit);
      ++hits_;
      return hit;
    }
  }
  auto fresh = std::make_shared<const ProblemStructure>(build_structure(p));
  // Injected eviction race: the whole cache is flushed in the unlocked gap
  // between the miss-path build above and the re-check below — the worst
  // interleaving a concurrent set_capacity(0)/put storm can produce. Callers
  // hold shared_ptrs, so evicted structures stay alive; the re-insert below
  // must leave the cache consistent.
  SOSLOCK_FAULT_HOOK(util::fault_site::kCacheEvict, {
    const util::MutexLock evict_lock(mutex_);
    evictions_ += slots_.size();
    slots_.clear();
  });
  const util::MutexLock lock(mutex_);
  // Re-check under the lock: batch workers miss simultaneously on first use
  // of a shared shape, and duplicate slots would evict live patterns. The
  // winner's slot is promoted and counted like any other hit.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]->fingerprint != fp || !slots_[i]->compatible_with(p)) continue;
    auto slot = slots_[i];
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
    slots_.insert(slots_.begin(), slot);
    ++hits_;
    return slot;
  }
  ++misses_;
  slots_.insert(slots_.begin(), fresh);
  enforce_capacity_locked();
  return fresh;
}

void StructureCache::put(std::shared_ptr<const ProblemStructure> structure) const {
  if (!structure) return;
  const util::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]->fingerprint == structure->fingerprint) {
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  slots_.insert(slots_.begin(), std::move(structure));
  enforce_capacity_locked();
}

void StructureCache::enforce_capacity_locked() const {
  while (slots_.size() > capacity_) {
    slots_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const ProblemStructure> StructureCache::find(std::uint64_t fingerprint) const {
  const util::MutexLock lock(mutex_);
  for (const auto& slot : slots_) {
    if (slot->fingerprint == fingerprint) return slot;
  }
  return nullptr;
}

std::size_t StructureCache::hits() const {
  const util::MutexLock lock(mutex_);
  return hits_;
}

StructureCacheTelemetry StructureCache::telemetry() const {
  const util::MutexLock lock(mutex_);
  StructureCacheTelemetry t;
  t.hits = hits_;
  t.misses = misses_;
  t.evictions = evictions_;
  t.entries = slots_.size();
  t.capacity = capacity_;
  return t;
}

void StructureCache::set_capacity(std::size_t capacity) {
  const util::MutexLock lock(mutex_);
  capacity_ = capacity;
  enforce_capacity_locked();
}

std::size_t StructureCache::capacity() const {
  const util::MutexLock lock(mutex_);
  return capacity_;
}

StructureCache& StructureCache::global() {
  static StructureCache* cache = new StructureCache(16);
  return *cache;
}

std::vector<std::vector<BlockRowView>> build_block_row_views(
    const Problem& p, const ProblemStructure& structure) {
  std::vector<std::vector<BlockRowView>> views(p.num_blocks());
  for (std::size_t j = 0; j < p.num_blocks(); ++j) {
    const auto& touching = structure.rows_touching_block[j];
    views[j].reserve(touching.size());
    for (const std::size_t i : touching) {
      views[j].push_back({i, &p.rows()[i].blocks.at(j)});
    }
  }
  return views;
}

}  // namespace soslock::sdp
