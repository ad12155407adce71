// AVX2+FMA kernel table. This TU is the only place compiled with
// -mavx2 -mfma (set per-source in CMake, never globally), and it gates
// itself on the resulting macros so a build without the flags still links —
// the exporter then returns nullptr and dispatch walks down.
#include "linalg/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "linalg/kernels_simd.hpp"

namespace soslock::linalg {
namespace {

struct VecAvx2D {
  static constexpr std::size_t W = 4;
  using elem = double;
  using vec = __m256d;
  static vec zero() { return _mm256_setzero_pd(); }
  static vec set1(double x) { return _mm256_set1_pd(x); }
  static vec loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, vec v) { _mm256_storeu_pd(p, v); }
  static vec add(vec a, vec b) { return _mm256_add_pd(a, b); }
  static vec mul(vec a, vec b) { return _mm256_mul_pd(a, b); }
  static vec fmadd(vec a, vec b, vec c) { return _mm256_fmadd_pd(a, b, c); }
  static vec fnmadd(vec a, vec b, vec c) { return _mm256_fnmadd_pd(a, b, c); }
  static double reduce_add(vec v) {
    double t[4];
    _mm256_storeu_pd(t, v);
    return (t[0] + t[1]) + (t[2] + t[3]);
  }
};

}  // namespace

const Kernels* kernels_avx2() {
  static const Kernels k = simd_detail::make_table<VecAvx2D>(util::SimdIsa::Avx2);
  return &k;
}

}  // namespace soslock::linalg

#else

namespace soslock::linalg {
const Kernels* kernels_avx2() { return nullptr; }
}  // namespace soslock::linalg

#endif
