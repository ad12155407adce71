#pragma once
// Shared helpers for the figure/table reproduction benches: boundary
// sampling of polynomial sublevel sets for 2-D projections, standard
// pipeline configurations, and CSV/ASCII output.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "linalg/kernels.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "util/ascii_plot.hpp"
#include "util/cpu.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace soslock::bench {

/// Worker-thread banner, honoring the SOSLOCK_THREADS override (the
/// sanitizer CI pins fan-out with it) unlike raw hardware_concurrency().
/// Returns the count so every gate bench can record a "worker_threads"
/// field in its JSON section — a speedup number without the thread count
/// that produced it is not reproducible evidence.
inline std::size_t thread_banner() {
  const std::size_t hw = util::ThreadPool::hardware_threads();
  std::printf("worker threads: %zu%s\n", hw,
              hw > 1 ? "" : "  (single core: parallel modes cannot win here)");
  return hw;
}

/// SIMD dispatch banner, the ISA analogue of thread_banner(): which kernel
/// table this process resolved at startup (detection + SOSLOCK_SIMD
/// override) versus what the CPU supports. Returns the dispatched ISA so the
/// gates can record it — a kernel speedup without the ISA that produced it
/// is not reproducible evidence.
inline util::SimdIsa cpu_banner() {
  const util::SimdIsa active = linalg::active_isa();
  const util::SimdIsa detected = util::detected_isa();
  std::printf("simd kernels: %s%s (cpu supports %s)\n", util::isa_name(active),
              active == detected ? "" : "  [SOSLOCK_SIMD override]",
              util::isa_name(detected));
  return active;
}

/// Append the kernel-configuration field every gate bench records in its
/// JSON section: the dispatched ISA as its enum code (0=scalar 1=neon
/// 2=avx2 3=avx512 — write_bench_json is numbers-only). Wraps the field list
/// so call sites stay brace-literal:
/// write_bench_json(path, sec, with_kernel_fields({...}), f).
inline std::vector<std::pair<std::string, double>> with_kernel_fields(
    std::vector<std::pair<std::string, double>> fields) {
  fields.emplace_back("simd_isa_code",
                      static_cast<double>(static_cast<int>(linalg::active_isa())));
  return fields;
}

/// Boundary of {p <= level} intersected with the (i, j) coordinate plane
/// (all other variables fixed to 0), sampled over `rays` directions by
/// bisection up to radius `rmax`. Points where the set exceeds rmax are
/// clamped (consistent with plotting a bounded window).
inline std::vector<std::pair<double, double>> boundary_slice(const poly::Polynomial& p,
                                                             std::size_t i, std::size_t j,
                                                             double level, int rays = 180,
                                                             double rmax = 20.0) {
  std::vector<std::pair<double, double>> points;
  points.reserve(static_cast<std::size_t>(rays));
  linalg::Vector x(p.nvars(), 0.0);
  for (int k = 0; k < rays; ++k) {
    const double theta = 2.0 * M_PI * k / rays;
    const double ci = std::cos(theta), cj = std::sin(theta);
    auto inside = [&](double r) {
      x.assign(p.nvars(), 0.0);
      x[i] = r * ci;
      x[j] = r * cj;
      return p.eval(x) <= level;
    };
    if (!inside(0.0)) continue;  // origin outside this slice: skip ray
    double lo = 0.0, hi = rmax;
    if (inside(rmax)) {
      points.emplace_back(rmax * ci, rmax * cj);
      continue;
    }
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo + hi);
      (inside(mid) ? lo : hi) = mid;
    }
    points.emplace_back(lo * ci, lo * cj);
  }
  return points;
}

/// Initial ellipsoidal level-set polynomial 0.5 * (sum (x_i/a_i)^2 - 1).
inline poly::Polynomial ellipsoid(std::size_t nvars, const std::vector<double>& semiaxes) {
  poly::Polynomial b(nvars);
  for (std::size_t i = 0; i < semiaxes.size(); ++i) {
    const poly::Polynomial x = poly::Polynomial::variable(nvars, i);
    b += (1.0 / (semiaxes[i] * semiaxes[i])) * x * x;
  }
  b -= poly::Polynomial::constant(nvars, 1.0);
  b *= 0.5;
  return b;
}

/// Standard P1 (attractive invariant) configuration for the PLL benches.
/// `paper_degrees` switches the certificate degree to the paper's (6 for the
/// third order, 4 for the fourth order); default uses the fast settings.
inline core::LyapunovOptions pll_lyapunov_options(int order, bool paper_degrees) {
  core::LyapunovOptions opt;
  opt.certificate_degree = paper_degrees ? (order == 3 ? 6u : 4u) : 2u;
  opt.flow_decrease = core::FlowDecrease::Strict;
  opt.strict_margin = order == 3 ? 1e-4 : 1e-5;
  opt.maximize_region = true;
  return opt;
}

inline core::AdvectionOptions pll_advection_options(int order) {
  core::AdvectionOptions opt;
  if (order == 3) {
    opt.h = 0.01;
    opt.gamma = 0.008;
  } else {
    opt.h = 0.004;
    opt.gamma = 0.01;
  }
  opt.eps = 0.3;
  return opt;
}

inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Minimal machine-readable bench output: one flat JSON object per section,
/// {"section": {"field": value, ...}, ...}. `fresh` truncates the file (the
/// first bench of a CI run); otherwise sections written by earlier benches
/// are kept and a section with the same name is *replaced*, so re-running
/// any single bench is idempotent. Only files this helper wrote (its fixed
/// two-space formatting) are parsed; anything else starts fresh.
inline void write_bench_json(const std::string& path, const std::string& section,
                             const std::vector<std::pair<std::string, double>>& fields,
                             bool fresh) {
  // Recover (name, body-lines) of previously written sections.
  std::vector<std::pair<std::string, std::string>> sections;
  if (!fresh) {
    std::string existing;
    if (std::FILE* in = std::fopen(path.c_str(), "rb")) {
      char buf[4096];
      std::size_t got;
      while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0) existing.append(buf, got);
      std::fclose(in);
    }
    std::string name, body;
    bool inside = false;
    std::size_t pos = 0;
    while (pos < existing.size()) {
      std::size_t eol = existing.find('\n', pos);
      if (eol == std::string::npos) eol = existing.size();
      const std::string line = existing.substr(pos, eol - pos);
      pos = eol + 1;
      if (!inside && line.size() > 4 && line.compare(0, 3, "  \"") == 0 &&
          line.back() == '{') {
        const std::size_t close = line.find('"', 3);
        if (close == std::string::npos) continue;
        name = line.substr(3, close - 3);
        body.clear();
        inside = true;
      } else if (inside && (line == "  }" || line == "  },")) {
        sections.emplace_back(name, body);
        inside = false;
      } else if (inside) {
        // Strip any trailing comma; it is re-added on write.
        std::string entry = line;
        if (!entry.empty() && entry.back() == ',') entry.pop_back();
        body += entry + "\n";
      }
    }
  }
  // Replace or append this bench's section.
  std::string body;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "    \"%s\": %.6g\n", fields[i].first.c_str(),
                  fields[i].second);
    body += line;
  }
  bool replaced = false;
  for (auto& [existing_name, existing_body] : sections) {
    if (existing_name == section) {
      existing_body = body;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(section, body);

  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  for (std::size_t s = 0; s < sections.size(); ++s) {
    std::fprintf(out, "  \"%s\": {\n", sections[s].first.c_str());
    // Re-add the per-field commas (every line but the last).
    const std::string& b = sections[s].second;
    std::size_t pos = 0;
    while (pos < b.size()) {
      std::size_t eol = b.find('\n', pos);
      if (eol == std::string::npos) eol = b.size();
      const bool last = b.find('\n', eol + 1) == std::string::npos && eol + 1 >= b.size();
      std::fprintf(out, "%.*s%s\n", static_cast<int>(eol - pos), b.c_str() + pos,
                   last ? "" : ",");
      pos = eol + 1;
    }
    std::fprintf(out, "  }%s\n", s + 1 < sections.size() ? "," : "");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
}

inline void print_series_plot(const std::string& title,
                              const std::vector<util::Series>& series, double extent_x,
                              double extent_y, const std::string& xlabel,
                              const std::string& ylabel) {
  util::AsciiPlot plot(-extent_x, extent_x, -extent_y, extent_y);
  for (const util::Series& s : series) plot.add(s);
  std::printf("%s\n", plot.str(title, xlabel, ylabel).c_str());
}

/// Dump multiple named boundary series to one CSV (series,x,y columns).
inline void dump_csv(const std::string& path, const std::vector<util::Series>& series) {
  util::CsvWriter csv({"series", "x", "y"});
  for (const util::Series& s : series) {
    for (const auto& [x, y] : s.points) csv.add_row(std::vector<std::string>{
        s.name, std::to_string(x), std::to_string(y)});
  }
  if (csv.write(path)) std::printf("wrote %s (%zu points)\n", path.c_str(), csv.rows());
}

}  // namespace soslock::bench
