#include "sos/program.hpp"

#include <cassert>

#include "poly/sparsity.hpp"
#include "util/log.hpp"

namespace soslock::sos {

using poly::LinExpr;
using poly::Monomial;
using poly::PolyLin;

SosProgram::SosProgram(std::size_t nvars) : nvars_(nvars) {}

int SosProgram::new_free_var(const std::string& name) {
  const int id = static_cast<int>(var_is_free_.size());
  var_is_free_.push_back(true);
  var_free_index_.push_back(num_free_++);
  var_gram_ref_.push_back({});
  free_names_.push_back(name);
  return id;
}

int SosProgram::new_gram_var() {
  const int id = static_cast<int>(var_is_free_.size());
  var_is_free_.push_back(false);
  var_free_index_.push_back(0);
  var_gram_ref_.push_back({});  // filled by caller
  free_names_.emplace_back();
  return id;
}

LinExpr SosProgram::add_scalar(const std::string& name) {
  return LinExpr::variable(new_free_var(name));
}

PolyLin SosProgram::add_poly(const std::vector<Monomial>& support, const std::string& name) {
  PolyLin p(nvars_);
  for (const Monomial& m : support) {
    const int id = new_free_var(name.empty() ? "" : name + "[" + m.str() + "]");
    p.add_term(m, LinExpr::variable(id));
  }
  return p;
}

PolyLin SosProgram::add_poly(unsigned max_deg, unsigned min_deg, const std::string& name) {
  return add_poly(poly::monomials_up_to(nvars_, max_deg, min_deg), name);
}

PolyLin SosProgram::add_sos_poly(const std::vector<Monomial>& gram_basis,
                                 const std::string& name) {
  assert(!gram_basis.empty());
  GramBlock block;
  block.basis = gram_basis;
  block.label = name;
  const std::size_t n = gram_basis.size();
  const std::size_t block_index = gram_blocks_.size();

  PolyLin p(nvars_);
  block.entry_vars.reserve(n * (n + 1) / 2);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      const int id = new_gram_var();
      var_gram_ref_[static_cast<std::size_t>(id)] = {block_index, r, c};
      block.entry_vars.push_back(id);
      const double mult = (r == c) ? 1.0 : 2.0;
      p.add_term(gram_basis[r] * gram_basis[c], LinExpr::variable(id, mult));
    }
  }
  gram_blocks_.push_back(std::move(block));
  return p;
}

PolyLin SosProgram::add_sos_poly(unsigned max_deg, unsigned min_deg, const std::string& name) {
  return add_sos_poly(poly::monomials_up_to(nvars_, max_deg / 2, (min_deg + 1) / 2), name);
}

void SosProgram::add_eq_zero(const PolyLin& p, const std::string& label) {
  for (const auto& [m, e] : p.terms()) {
    eq_rows_.push_back({m, e, label});
  }
}

void SosProgram::add_sos_constraint(const PolyLin& p, const std::string& label, bool prune) {
  const poly::SupportInfo info = poly::support_info(p);
  const poly::GramPrune prune_level =
      !prune ? poly::GramPrune::None
             : (info.support.empty() ? poly::GramPrune::Box : poly::GramPrune::Newton);
  std::vector<Monomial> basis = poly::gram_basis(nvars_, info, prune_level);

  // Correlative-sparsity split: one Gram block per csp clique, the sum of
  // the clique Gram polynomials matched against p. A trivial split (single
  // clique) degenerates to the dense path below, reusing the pruned basis
  // computed above (the Newton prune is the expensive part).
  if (correlative_) {
    const poly::GramCliqueSplit split = poly::split_gram_basis(nvars_, info, basis);
    if (!split.trivial()) {
      const std::string base = label.empty() ? "sos" : label;
      std::vector<std::size_t> gram_indices;
      gram_indices.reserve(split.bases.size());
      PolyLin total(nvars_);
      for (std::size_t k = 0; k < split.bases.size(); ++k) {
        gram_indices.push_back(gram_blocks_.size());
        total += add_sos_poly(split.bases[k], base + ".clique" + std::to_string(k));
      }
      add_eq_zero(p - total, label);
      sos_records_.push_back({p, std::move(gram_indices), label});
      return;
    }
  }
  if (basis.empty()) {
    // p must be identically zero for the constraint to hold.
    util::log_warn("sos: empty Gram basis for constraint '", label, "'; forcing p == 0");
    add_eq_zero(p, label);
    return;
  }
  const std::size_t gram_index = gram_blocks_.size();
  const PolyLin gram_poly = add_sos_poly(basis, label.empty() ? "sos" : label);
  add_eq_zero(p - gram_poly, label);
  sos_records_.push_back({p, {gram_index}, label});
}

void SosProgram::add_linear_eq(const LinExpr& e, const std::string& label) {
  linear_rows_.push_back({e, true, label});
}

void SosProgram::add_linear_ge(const LinExpr& e, const std::string& label) {
  linear_rows_.push_back({e, false, label});
}

void SosProgram::minimize(const LinExpr& objective) {
  objective_ = objective;
  objective_is_max_ = false;
}

void SosProgram::maximize(const LinExpr& objective) {
  objective_ = -objective;
  objective_is_max_ = true;
}

}  // namespace soslock::sos
