#include "pll/models.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace soslock::pll {

using hybrid::HybridSystem;
using hybrid::Jump;
using hybrid::Mode;
using hybrid::SemialgebraicSet;
using poly::Polynomial;

namespace {

/// Flow field of the loop filter + VCO with pump term `pump` (a polynomial in
/// the shared variable space: 0, +u, -u, +rho*e, ...).
std::vector<Polynomial> loop_flow(const LoopConstants& k, std::size_t nvars,
                                  const Polynomial& pump) {
  std::vector<Polynomial> f;
  const auto var = [nvars](std::size_t i) { return Polynomial::variable(nvars, i); };
  if (k.order == 3) {
    // x = (v1, v2, e)
    f.push_back(k.a * (var(1) - var(0)));
    f.push_back((var(0) - var(1)) + pump);
    f.push_back(-k.kappa * var(1));
  } else {
    // x = (v1, v2, v3, e); VCO driven from the extra RC node v3.
    f.push_back(k.a * (var(1) - var(0)));
    f.push_back((var(0) - var(1)) + k.beta * (var(2) - var(1)) + pump);
    f.push_back(k.gamma * (var(1) - var(2)));
    f.push_back(-k.kappa * var(2));
  }
  return f;
}

SemialgebraicSet voltage_box(std::size_t nvars, std::size_t nv, double v_box) {
  SemialgebraicSet s(nvars);
  for (std::size_t i = 0; i < nv; ++i) s.add_interval(i, -v_box, v_box);
  return s;
}

}  // namespace

double resolve_gain_scale(int order, double gain_scale) {
  if (gain_scale > 0.0) return gain_scale;
  // Defaults chosen so (i) the averaged loop is Hurwitz-stable and (ii) the
  // event-driven loop respects Gardner's limit: the per-reference-period
  // phase correction kappa*rho*T_ref^2 stays below ~0.5, otherwise the
  // sampled bang-bang loop cycle-slips even though the continuized model is
  // stable. See DESIGN.md ("substitutions") for the unit-interpretation
  // discussion.
  return order == 3 ? 0.02 : 3e-4;
}

ReducedModel make_reduced(const Params& params, const ModelOptions& options) {
  ReducedModel model;
  model.order = params.order;
  model.constants =
      derive_constants(params, resolve_gain_scale(params.order, options.gain_scale));
  model.options = options;
  const LoopConstants& k = model.constants;

  const std::size_t nstates = params.order == 3 ? 3 : 4;
  const std::size_t nparams = options.uncertain_pump ? 1 : 0;
  const std::size_t nvars = nstates + nparams;
  const std::size_t nv = nstates - 1;  // number of voltage states
  model.e_index = nstates - 1;

  HybridSystem sys(nstates, nparams);
  {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < nv; ++i) names.push_back("v" + std::to_string(i + 1));
    names.push_back("e");
    if (nparams > 0) names.push_back("u_pump");
    sys.set_state_names(names);
  }

  const Polynomial zero(nvars);
  // Normalized uncertainty: pump magnitude rho_nom + rho_rad * u with
  // u in [-1, 1] (centering/scaling keeps the SDP data well conditioned).
  const double rho_rad = 0.5 * (k.rho_hi - k.rho_lo);
  const Polynomial pump_mag =
      options.uncertain_pump
          ? Polynomial::constant(nvars, k.rho) +
                rho_rad * Polynomial::variable(nvars, nstates)
          : Polynomial::constant(nvars, k.rho);

  // Mode domains: C_idle = {|e| <= e_box}, C_up = {0 <= e <= e_pump_max},
  // C_down = {-e_pump_max <= e <= 0}; all within the voltage box.
  const SemialgebraicSet vbox = voltage_box(nvars, nv, options.v_box);

  Mode idle;
  idle.name = "idle";
  idle.flow = loop_flow(k, nvars, zero);
  idle.domain = vbox;
  idle.domain.add_interval(model.e_index, -options.e_box, options.e_box);
  idle.contains_equilibrium = true;
  model.mode_idle = sys.add_mode(std::move(idle));

  Mode up;
  up.name = "up";
  up.flow = loop_flow(k, nvars, pump_mag);
  up.domain = vbox;
  up.domain.add_interval(model.e_index, 0.0, options.e_pump_max);
  model.mode_up = sys.add_mode(std::move(up));

  Mode down;
  down.name = "down";
  down.flow = loop_flow(k, nvars, -1.0 * pump_mag);
  down.domain = vbox;
  down.domain.add_interval(model.e_index, -options.e_pump_max, 0.0);
  model.mode_down = sys.add_mode(std::move(down));

  // Jumps (identity resets, Remark 1). Guards: the reference (resp. VCO)
  // wrap can occur anywhere with the corresponding sign of e, within one
  // period of lock.
  auto guard_on_e = [&](double lo, double hi) {
    SemialgebraicSet g = vbox;
    g.add_interval(model.e_index, lo, hi);
    return g;
  };
  sys.add_jump({model.mode_idle, model.mode_up, guard_on_e(0.0, options.e_box), {},
                "ref-wrap(idle->up)"});
  sys.add_jump({model.mode_up, model.mode_idle, guard_on_e(0.0, options.e_box), {},
                "vco-wrap(up->idle)"});
  sys.add_jump({model.mode_idle, model.mode_down, guard_on_e(-options.e_box, 0.0), {},
                "vco-wrap(idle->down)"});
  sys.add_jump({model.mode_down, model.mode_idle, guard_on_e(-options.e_box, 0.0), {},
                "ref-wrap(down->idle)"});

  if (options.uncertain_pump) {
    SemialgebraicSet pset(nvars);
    pset.add_interval(nstates, -1.0, 1.0);
    sys.set_parameter_set(std::move(pset));
    sys.set_nominal_parameters({0.0});
  }

  model.system = std::move(sys);
  assert(model.system.validate().empty());
  return model;
}

ReducedModel make_averaged(const Params& params, const ModelOptions& options) {
  ReducedModel model;
  model.order = params.order;
  model.constants =
      derive_constants(params, resolve_gain_scale(params.order, options.gain_scale));
  model.options = options;
  const LoopConstants& k = model.constants;

  const std::size_t nstates = params.order == 3 ? 3 : 4;
  const bool has_ripple = options.ripple_bound > 0.0;
  const std::size_t nparams =
      (options.uncertain_pump ? 1u : 0u) + (has_ripple ? 1u : 0u);
  const std::size_t nvars = nstates + nparams;
  const std::size_t nv = nstates - 1;
  model.e_index = nstates - 1;
  const std::size_t pump_var = nstates;                              // if uncertain
  const std::size_t ripple_var = nstates + (options.uncertain_pump ? 1 : 0);

  HybridSystem sys(nstates, nparams);
  {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < nv; ++i) names.push_back("v" + std::to_string(i + 1));
    names.push_back("e");
    if (options.uncertain_pump) names.push_back("u_pump");
    if (has_ripple) names.push_back("w");
    sys.set_state_names(names);
  }

  // Average pump current over one reference period: duty cycle |e| with the
  // sign of e, i.e. pump = rho * e (valid for |e| <= 1), plus the bounded
  // continuization ripple w. Uncertainties are normalized to [-1, 1].
  const Polynomial e_poly = Polynomial::variable(nvars, model.e_index);
  const double rho_rad = 0.5 * (k.rho_hi - k.rho_lo);
  Polynomial pump =
      options.uncertain_pump
          ? (Polynomial::constant(nvars, k.rho) +
             rho_rad * Polynomial::variable(nvars, pump_var)) *
                e_poly
          : k.rho * e_poly;
  if (has_ripple) pump += options.ripple_bound * Polynomial::variable(nvars, ripple_var);

  Mode avg;
  avg.name = "averaged";
  avg.flow = loop_flow(k, nvars, pump);
  avg.domain = voltage_box(nvars, nv, options.v_box);
  avg.domain.add_interval(model.e_index, -options.e_box, options.e_box);
  avg.contains_equilibrium = true;
  model.mode_idle = model.mode_up = model.mode_down = sys.add_mode(std::move(avg));

  if (nparams > 0) {
    SemialgebraicSet pset(nvars);
    linalg::Vector nominal;
    if (options.uncertain_pump) {
      pset.add_interval(pump_var, -1.0, 1.0);
      nominal.push_back(0.0);
    }
    if (has_ripple) {
      pset.add_interval(ripple_var, -1.0, 1.0);
      nominal.push_back(0.0);
    }
    sys.set_parameter_set(std::move(pset));
    sys.set_nominal_parameters(std::move(nominal));
  }

  model.system = std::move(sys);
  assert(model.system.validate().empty());
  return model;
}

ReducedModel make_averaged_vertices(const Params& params, const ModelOptions& options) {
  ModelOptions nominal = options;
  nominal.uncertain_pump = false;
  nominal.ripple_bound = 0.0;
  ReducedModel model = make_averaged(params, nominal);
  const LoopConstants& k = model.constants;
  const std::size_t nvars = model.system.nvars();
  const Polynomial e_poly = Polynomial::variable(nvars, model.e_index);

  // Rebuild as a two-mode system: one vertex of the Ip interval per mode.
  HybridSystem sys(model.system.nstates(), 0);
  sys.set_state_names(model.system.state_names());
  for (const double rho : {k.rho_lo, k.rho_hi}) {
    Mode m;
    m.name = rho == k.rho_lo ? "pump-lo" : "pump-hi";
    m.flow = loop_flow(k, nvars, rho * e_poly);
    m.domain = model.system.modes().front().domain;
    m.contains_equilibrium = true;
    sys.add_mode(std::move(m));
  }
  // The "switching" between vertices is arbitrary (the true Ip is fixed but
  // unknown): identity jumps over the shared domain in both directions.
  const hybrid::SemialgebraicSet guard = sys.modes().front().domain;
  sys.add_jump({0, 1, guard, {}, "vertex-lo->hi"});
  sys.add_jump({1, 0, guard, {}, "vertex-hi->lo"});
  model.system = std::move(sys);
  model.mode_idle = model.mode_up = model.mode_down = 0;
  assert(model.system.validate().empty());
  return model;
}

namespace {

/// Row `r` of the closed-loop clock-tree state matrix A (x' = A x), written
/// densely into `row` (state layout [s, v_1, e_1, ...]). The rail leaks to
/// ground and averages the leaf filter nodes. Each leaf filter node v_i
/// relaxes, takes the duty-cycle-averaged pump rho*e_i, and couples to the
/// rail; each phase error e_i integrates -kappa*v_i. Leaves talk to each
/// other only through s unless neighbor_coupling adds the banded crosstalk
/// terms. The model's flow rows and the coupling SDP's sparsity pattern both
/// read A through this, one row at a time, so no n x n matrix is formed.
void clock_tree_state_row(const LoopConstants& k, const ClockTreeOptions& options,
                          std::size_t r, linalg::Vector& row) {
  const std::size_t loops = options.loops;
  const double c = options.coupling;
  row.assign(1 + 2 * loops, 0.0);
  if (r == 0) {
    row[0] = -options.rail_leak - c;
    const double per_loop = c / static_cast<double>(loops);
    for (std::size_t i = 0; i < loops; ++i) row[1 + 2 * i] = per_loop;
    return;
  }
  const std::size_t i = (r - 1) / 2, v = 1 + 2 * i;
  if (r != v) {  // e_i
    row[v] = -k.kappa;
    return;
  }
  row[0] = c;
  row[v + 1] = k.rho;
  const double nc = options.neighbor_coupling;
  const std::size_t hops = nc != 0.0 ? options.neighbor_hops : 0;
  const auto same_cluster = [&options](std::size_t a, std::size_t b) {
    return options.cluster == 0 || a / options.cluster == b / options.cluster;
  };
  double self = -1.0 - c;
  for (std::size_t h = 1; h <= hops; ++h) {
    if (i >= h && same_cluster(i, i - h)) {
      row[1 + 2 * (i - h)] += nc;
      self -= nc;
    }
    if (i + h < loops && same_cluster(i, i + h)) {
      row[1 + 2 * (i + h)] += nc;
      self -= nc;
    }
  }
  row[v] = self;
}

}  // namespace

ClockTreeModel make_clock_tree(const Params& params, const ClockTreeOptions& options) {
  ClockTreeModel model;
  model.loops = options.loops;
  model.options = options;
  model.constants = derive_constants(params, resolve_gain_scale(3, options.gain_scale));
  const LoopConstants& k = model.constants;
  assert(options.loops >= 1);

  const std::size_t nstates = 1 + 2 * options.loops;
  const std::size_t nvars = nstates;  // no uncertain parameters

  HybridSystem sys(nstates, 0);
  {
    std::vector<std::string> names = {"s"};
    for (std::size_t i = 0; i < options.loops; ++i) {
      names.push_back("v" + std::to_string(i + 1));
      names.push_back("e" + std::to_string(i + 1));
    }
    sys.set_state_names(names);
  }

  // Every flow row is affine, so each is built from its row of A in one
  // pass: merging variable polynomials would re-merge the shared-rail row
  // K times, quadratic in the tree size.
  Mode avg;
  avg.name = "clock-tree";
  std::vector<Polynomial> flow;
  flow.reserve(nstates);
  linalg::Vector lin;
  for (std::size_t r = 0; r < nstates; ++r) {
    clock_tree_state_row(k, options, r, lin);
    flow.push_back(Polynomial::affine(nvars, lin, 0.0));
  }
  avg.flow = std::move(flow);

  SemialgebraicSet domain(nvars);
  domain.add_interval(model.rail_index, -options.v_box, options.v_box);
  for (std::size_t i = 0; i < options.loops; ++i) {
    domain.add_interval(model.v_index(i), -options.v_box, options.v_box);
    domain.add_interval(model.e_index(i), -options.e_box, options.e_box);
  }
  avg.domain = std::move(domain);
  avg.contains_equilibrium = true;
  sys.add_mode(std::move(avg));

  model.system = std::move(sys);
  assert(model.system.validate().empty());
  return model;
}

sdp::Problem clock_tree_coupling_sdp(const LoopConstants& k,
                                     const ClockTreeOptions& options) {
  const std::size_t n = 1 + 2 * options.loops;

  // Coupling graph: r ~ c wherever a_rc or a_cr is nonzero. Neighbor lists
  // ascend, so every loop below visits pairs in row-major order.
  std::vector<std::vector<std::size_t>> nbr(n);
  {
    linalg::Vector row;
    for (std::size_t r = 0; r < n; ++r) {
      clock_tree_state_row(k, options, r, row);
      for (std::size_t c = 0; c < n; ++c) {
        if (c == r || row[c] == 0.0) continue;
        nbr[r].push_back(c);
        nbr[c].push_back(r);
      }
    }
    for (auto& list : nbr) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }

  // PSD witness X* with the coupling pattern: diagonally dominant,
  // off-diagonal mass on the coupling edges only. Only its diagonal is
  // stored; witness() reads X* off the pattern.
  const auto edge_value = [](std::size_t r, std::size_t c) {
    return 0.4 + 0.1 * static_cast<double>((r + c) % 3);
  };
  linalg::Vector diag(n);
  for (std::size_t r = 0; r < n; ++r) {
    double off = 0.0;
    for (const std::size_t c : nbr[r]) off += std::fabs(edge_value(r, c));
    diag[r] = 1.0 + off + 0.05 * static_cast<double>(r % 4);
  }
  const auto witness = [&](std::size_t r, std::size_t c) {
    return r == c ? diag[r] : edge_value(r, c);
  };
  // <A, X*> for a coefficient on the pattern (SparseSym::dot's sum order).
  const auto witness_dot = [&](const sdp::SparseSym& a) {
    double acc = 0.0;
    for (const sdp::Triplet& t : a.entries)
      acc += (t.r == t.c ? 1.0 : 2.0) * t.v * witness(t.r, t.c);
    return acc;
  };

  sdp::Problem p;
  const std::size_t blk = p.add_block(n);
  p.set_block_objective(blk, sdp::SparseSym::diagonal(n, 1.0));  // min trace
  // Clustered trees coarsen the measurement rows: instead of one row per
  // coupling edge (m grows with the g^2/2 crosstalk pairs of each
  // g-loop cluster, and the dense normal/Schur systems with m^2), the three
  // edge families — rail tap, crosstalk, leaf dynamics — each contribute ONE
  // aggregate observable row per cluster. The entry pattern (hence the
  // correlative-sparsity graph and the chordal cliques) is identical; only
  // the row space is coarser, which is what keeps the consensus-side normal
  // solve near-constant while the per-clique eigenwork scales cubically —
  // the regime the clique-parallel backends are built for.
  const std::size_t g = options.cluster;
  const std::size_t nclusters = g == 0 ? 0 : (options.loops + g - 1) / g;
  enum Family { kRail = 0, kCross = 1, kLeaf = 2 };
  const char* family_name[] = {"rail", "cross", "leaf"};
  std::vector<sdp::SparseSym> agg(3 * nclusters);
  for (std::size_t r = 0; r < n; ++r) {
    for (const std::size_t c : nbr[r]) {
      if (c < r) continue;
      sdp::SparseSym coeff;
      coeff.add(r, r, 1.0);
      coeff.add(r, c, 0.5 + 0.1 * static_cast<double>((r + c) % 2));
      coeff.add(c, c, -0.3);
      if (g > 0) {
        // State layout [s, v_1, e_1, ...]: r < c, so r == 0 is the rail tap,
        // odd r/odd c is v-v crosstalk, and odd r/even c is a v_i-e_i pair.
        const Family fam = r == 0 ? kRail : (c % 2 == 1 ? kCross : kLeaf);
        const std::size_t cl = (c - 1) / 2 / g;
        sdp::SparseSym& bucket = agg[3 * cl + fam];
        for (const sdp::Triplet& t : coeff.entries) bucket.add(t.r, t.c, t.v);
        continue;
      }
      sdp::Row row;
      // Sparse <A, X*> directly: densifying each 3-entry coefficient into an
      // n x n scratch made assembly cubic in the tree size, which dominated
      // the solve itself from K ~ 64 up.
      row.rhs = witness_dot(coeff);
      row.label = "edge." + std::to_string(r) + "." + std::to_string(c);
      row.blocks[blk] = std::move(coeff);
      p.add_row(std::move(row));
    }
  }
  for (std::size_t cl = 0; cl < nclusters; ++cl) {
    for (int fam = 0; fam < 3; ++fam) {
      sdp::SparseSym& coeff = agg[3 * cl + fam];
      if (coeff.empty()) continue;
      sdp::Row row;
      row.rhs = witness_dot(coeff);
      row.label = std::string("cluster.") + std::to_string(cl) + "." + family_name[fam];
      row.blocks[blk] = std::move(coeff);
      p.add_row(std::move(row));
    }
  }
  return p;
}


linalg::Matrix averaged_state_matrix(const LoopConstants& k) {
  if (k.order == 3) {
    return linalg::Matrix::from_rows({{-k.a, k.a, 0.0},
                                      {1.0, -1.0, k.rho},
                                      {0.0, -k.kappa, 0.0}});
  }
  return linalg::Matrix::from_rows({{-k.a, k.a, 0.0, 0.0},
                                    {1.0, -(1.0 + k.beta), k.beta, k.rho},
                                    {0.0, k.gamma, -k.gamma, 0.0},
                                    {0.0, 0.0, -k.kappa, 0.0}});
}

}  // namespace soslock::pll
