#include "sweep/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "util/log.hpp"

namespace soslock::sweep {
namespace {

constexpr const char* kHeader = "soslock-sweep-checkpoint v1";

void write_vector(std::FILE* f, const char* tag, const linalg::Vector& v) {
  std::fprintf(f, "%s %zu", tag, v.size());
  for (const double value : v) std::fprintf(f, " %.17g", value);
  std::fprintf(f, "\n");
}

void write_matrix(std::FILE* f, const linalg::Matrix& m) {
  std::fprintf(f, "m %zu %zu", m.rows(), m.cols());
  const std::size_t n = m.rows() * m.cols();
  for (std::size_t i = 0; i < n; ++i) std::fprintf(f, " %.17g", m.data()[i]);
  std::fprintf(f, "\n");
}

bool read_vector(std::FILE* f, const char* tag, linalg::Vector& v) {
  char seen[8] = {0};
  std::uint64_t n = 0;
  if (std::fscanf(f, "%7s %" SCNu64, seen, &n) != 2) return false;
  if (std::string(seen) != tag || n > (1u << 26)) return false;
  v.assign(n, 0.0);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (std::fscanf(f, "%lg", &v[i]) != 1) return false;
  }
  return true;
}

/// Warm-chain blocks are square PSD cones; anything else is corrupt. The
/// 2^13 side cap is read_vector's 2^26-element cap, checked before the
/// allocation.
bool read_matrix(std::FILE* f, linalg::Matrix& m) {
  char seen[8] = {0};
  std::uint64_t rows = 0, cols = 0;
  if (std::fscanf(f, "%7s %" SCNu64 " %" SCNu64, seen, &rows, &cols) != 3) return false;
  if (std::string(seen) != "m" || rows != cols || rows > (1u << 13)) return false;
  m = linalg::Matrix(rows, cols);
  const std::uint64_t n = rows * cols;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (std::fscanf(f, "%lg", &m.data()[i]) != 1) return false;
  }
  return true;
}

bool read_blocks(std::FILE* f, const char* tag, std::vector<linalg::Matrix>& out) {
  char seen[8] = {0};
  std::uint64_t count = 0;
  if (std::fscanf(f, "%7s %" SCNu64, seen, &count) != 2) return false;
  if (std::string(seen) != tag || count > (1u << 20)) return false;
  out.resize(count);
  for (std::uint64_t j = 0; j < count; ++j) {
    if (!read_matrix(f, out[j])) return false;
  }
  return true;
}

}  // namespace

bool save_checkpoint(const std::string& path, const SweepCheckpoint& checkpoint) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    util::log_info("sweep checkpoint: cannot open ", tmp, " for writing");
    return false;
  }
  std::fprintf(f, "%s\n", kHeader);
  std::fprintf(f, "grid %" PRIu64 " %" PRIu64 "\n", checkpoint.grid_points,
               checkpoint.lanes);
  for (const PointRecord& rec : checkpoint.completed) {
    std::fprintf(f, "point %zu %d %d %d %d %d %.17g %.17g %.17g\n", rec.index,
                 rec.certified ? 1 : 0, static_cast<int>(rec.status), rec.iterations,
                 rec.warm_hit ? 1 : 0, rec.cold_restart ? 1 : 0, rec.solve_seconds,
                 rec.audit_residual, rec.objective);
  }
  for (std::size_t lane = 0; lane < checkpoint.lane_chains.size(); ++lane) {
    const sdp::WarmStart& chain = checkpoint.lane_chains[lane];
    std::fprintf(f, "lane %zu %d %" PRIu64 "\n", lane, chain.empty() ? 0 : 1,
                 chain.fingerprint);
    if (chain.empty()) continue;
    std::fprintf(f, "x %zu\n", chain.x.size());
    for (const linalg::Matrix& m : chain.x) write_matrix(f, m);
    std::fprintf(f, "z %zu\n", chain.z.size());
    for (const linalg::Matrix& m : chain.z) write_matrix(f, m);
    write_vector(f, "y", chain.y);
    write_vector(f, "w", chain.w);
  }
  const bool io_ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  if (!io_ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    util::log_info("sweep checkpoint: failed to publish ", path);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

SweepCheckpoint load_checkpoint(const std::string& path) {
  SweepCheckpoint cp;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return cp;
  bool ok = true;
  {
    char header[64] = {0};
    // The header is the only line read wholesale; everything after is
    // whitespace-token scanf, so line breaks are purely cosmetic.
    ok = std::fgets(header, sizeof(header), f) != nullptr &&
         std::string(header) == std::string(kHeader) + "\n";
  }
  char tag[16] = {0};
  if (ok) {
    ok = std::fscanf(f, "%15s %" SCNu64 " %" SCNu64, tag, &cp.grid_points, &cp.lanes) ==
             3 &&
         std::string(tag) == "grid" && cp.lanes <= (1u << 16);
  }
  while (ok && std::fscanf(f, "%15s", tag) == 1) {
    if (std::string(tag) == "point") {
      PointRecord rec;
      int certified = 0, status = 0, warm_hit = 0, cold_restart = 0;
      ok = std::fscanf(f, "%zu %d %d %d %d %d %lg %lg %lg", &rec.index, &certified,
                       &status, &rec.iterations, &warm_hit, &cold_restart,
                       &rec.solve_seconds, &rec.audit_residual, &rec.objective) == 9 &&
           rec.index < cp.grid_points && status >= 0 &&
           status <= static_cast<int>(sdp::SolveStatus::Faulted);
      if (!ok) break;
      rec.certified = certified != 0;
      rec.warm_hit = warm_hit != 0;
      rec.cold_restart = cold_restart != 0;
      rec.status = static_cast<sdp::SolveStatus>(status);
      cp.completed.push_back(std::move(rec));
    } else if (std::string(tag) == "lane") {
      std::uint64_t lane = 0;
      int nonempty = 0;
      sdp::WarmStart chain;
      ok = std::fscanf(f, "%" SCNu64 " %d %" SCNu64, &lane, &nonempty,
                       &chain.fingerprint) == 3 &&
           lane < cp.lanes;
      if (!ok) break;
      if (nonempty != 0) {
        ok = read_blocks(f, "x", chain.x) && read_blocks(f, "z", chain.z) &&
             read_vector(f, "y", chain.y) && read_vector(f, "w", chain.w);
        if (!ok) break;
      }
      cp.lane_chains.resize(cp.lanes);
      cp.lane_chains[lane] = std::move(chain);
    } else {
      ok = false;
    }
  }
  std::fclose(f);
  if (!ok) {
    util::log_info("sweep checkpoint: ", path, " is corrupt or mismatched; ignoring");
    return SweepCheckpoint{};
  }
  if (cp.lane_chains.empty()) cp.lane_chains.resize(cp.lanes);
  return cp;
}

}  // namespace soslock::sweep
