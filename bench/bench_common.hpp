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
inline void thread_banner() {
  const std::size_t hw = util::ThreadPool::hardware_threads();
  std::printf("worker threads: %zu%s\n", hw,
              hw > 1 ? "" : "  (single core: parallel modes cannot win here)");
}

/// SIMD dispatch banner, the ISA analogue of thread_banner(): which kernel
/// table this process resolved at startup (detection + SOSLOCK_SIMD
/// override) versus what the CPU supports. Returns the dispatched ISA, which
/// arms or skips the hardware-conditional kernel gates.
inline util::SimdIsa cpu_banner() {
  const util::SimdIsa active = linalg::active_isa();
  const util::SimdIsa detected = util::detected_isa();
  std::printf("simd kernels: %s%s (cpu supports %s)\n", util::isa_name(active),
              active == detected ? "" : "  [SOSLOCK_SIMD override]",
              util::isa_name(detected));
  return active;
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
