// AVX-512 kernel table (F + VL + DQ): 512-bit FMA lanes. This TU is the only
// place compiled with the -mavx512* flags (set per-source in CMake); it
// self-gates on the macros so flagless builds still link and dispatch walks
// down to AVX2 or scalar.
#include "linalg/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include "linalg/kernels_simd.hpp"

namespace soslock::linalg {
namespace {

struct VecAvx512D {
  static constexpr std::size_t W = 8;
  using elem = double;
  using vec = __m512d;
  static vec zero() { return _mm512_setzero_pd(); }
  static vec set1(double x) { return _mm512_set1_pd(x); }
  static vec loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, vec v) { _mm512_storeu_pd(p, v); }
  static vec add(vec a, vec b) { return _mm512_add_pd(a, b); }
  static vec mul(vec a, vec b) { return _mm512_mul_pd(a, b); }
  static vec fmadd(vec a, vec b, vec c) { return _mm512_fmadd_pd(a, b, c); }
  static vec fnmadd(vec a, vec b, vec c) { return _mm512_fnmadd_pd(a, b, c); }
  static double reduce_add(vec v) {
    double t[8];
    _mm512_storeu_pd(t, v);
    return ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]));
  }
};

}  // namespace

const Kernels* kernels_avx512() {
  static const Kernels k = simd_detail::make_table<VecAvx512D>(util::SimdIsa::Avx512);
  return &k;
}

}  // namespace soslock::linalg

#else

namespace soslock::linalg {
const Kernels* kernels_avx512() { return nullptr; }
}  // namespace soslock::linalg

#endif
