// NEON kernel table. Double-precision NEON (float64x2_t) is baseline on
// aarch64, so this TU needs no special compile flags there; on every other
// architecture it compiles to the nullptr exporter and dispatch falls back
// to scalar.
#include "linalg/kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "linalg/kernels_simd.hpp"

namespace soslock::linalg {
namespace {

struct VecNeonD {
  static constexpr std::size_t W = 2;
  using elem = double;
  using vec = float64x2_t;
  static vec zero() { return vdupq_n_f64(0.0); }
  static vec set1(double x) { return vdupq_n_f64(x); }
  static vec loadu(const double* p) { return vld1q_f64(p); }
  static void storeu(double* p, vec v) { vst1q_f64(p, v); }
  static vec add(vec a, vec b) { return vaddq_f64(a, b); }
  static vec mul(vec a, vec b) { return vmulq_f64(a, b); }
  // vfmaq_f64(c, a, b) = c + a * b (fused); vfmsq is the fused c - a * b.
  static vec fmadd(vec a, vec b, vec c) { return vfmaq_f64(c, a, b); }
  static vec fnmadd(vec a, vec b, vec c) { return vfmsq_f64(c, a, b); }
  static double reduce_add(vec v) { return vaddvq_f64(v); }
};

}  // namespace

const Kernels* kernels_neon() {
  static const Kernels k = simd_detail::make_table<VecNeonD>(util::SimdIsa::Neon);
  return &k;
}

}  // namespace soslock::linalg

#else

namespace soslock::linalg {
const Kernels* kernels_neon() { return nullptr; }
}  // namespace soslock::linalg

#endif
