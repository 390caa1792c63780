// AVX2 backend: simd<double, 4> over __m256d.
//
// Only compiled when DIMMER_SIMD_AVX2 is defined (CMake -DDIMMER_SIMD=avx2,
// which also adds -mavx2). Deliberate choices:
//
//  - max/min are implemented with compare+blend so they reproduce
//    std::max/std::min semantics lane-for-lane ((a < b) ? b : a). The bare
//    vmaxpd instruction instead returns its *second* operand on NaN and
//    differs on ±0, which would silently diverge from the scalar engine.
//  - AVX2 has no packed int64<->double conversion, so exp2i uses the
//    classic bit trick: a 32-bit convert, widened to 64 bits. It is an
//    exact integer manipulation — no rounding is introduced.
//  - No FMA is emitted: we only use mul/add/sub intrinsics and the TU is
//    compiled without -mfma contraction of intrinsics, so polynomial
//    evaluation order is exactly as written.
#pragma once

#if !defined(DIMMER_SIMD_AVX2) && !defined(DIMMER_SIMD_AVX512)
#error "avx2.hpp requires DIMMER_SIMD_AVX2 (configure with -DDIMMER_SIMD=avx2)"
#endif

#include <immintrin.h>

#include "util/simd/scalar.hpp"

namespace dimmer::util::simd {

template <>
struct simd<double, 4> {
  static constexpr int width = 4;
  using scalar_type = double;

  __m256d v;

  simd() : v(_mm256_setzero_pd()) {}
  explicit simd(double x) : v(_mm256_set1_pd(x)) {}
  explicit simd(__m256d x) : v(x) {}

  static simd load(const double* p) { return simd(_mm256_loadu_pd(p)); }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static simd broadcast(double x) { return simd(_mm256_set1_pd(x)); }
  double lane(int i) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }

  friend simd operator+(simd a, simd b) {
    return simd(_mm256_add_pd(a.v, b.v));
  }
  friend simd operator-(simd a, simd b) {
    return simd(_mm256_sub_pd(a.v, b.v));
  }
  friend simd operator*(simd a, simd b) {
    return simd(_mm256_mul_pd(a.v, b.v));
  }
  friend simd operator/(simd a, simd b) {
    return simd(_mm256_div_pd(a.v, b.v));
  }
};

inline simd<double, 4> max(simd<double, 4> a, simd<double, 4> b) {
  // (a < b) ? b : a — std::max semantics, not vmaxpd.
  const __m256d lt = _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
  return simd<double, 4>(_mm256_blendv_pd(a.v, b.v, lt));
}

inline simd<double, 4> min(simd<double, 4> a, simd<double, 4> b) {
  // (b < a) ? b : a — std::min semantics.
  const __m256d lt = _mm256_cmp_pd(b.v, a.v, _CMP_LT_OQ);
  return simd<double, 4>(_mm256_blendv_pd(a.v, b.v, lt));
}

inline simd<double, 4> round_nearest(simd<double, 4> x) {
  return simd<double, 4>(
      _mm256_round_pd(x.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

inline simd<double, 4> select_lt(simd<double, 4> a, simd<double, 4> b,
                                 simd<double, 4> x, simd<double, 4> y) {
  const __m256d lt = _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
  return simd<double, 4>(_mm256_blendv_pd(y.v, x.v, lt));
}

inline simd<double, 4> exp2i(simd<double, 4> n) {
  // n holds integer values in [-1022, 1024]: convert through int32 (exact in
  // that range), widen to int64, and build the exponent field directly.
  const __m128i n32 = _mm256_cvtpd_epi32(n.v);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i biased = _mm256_add_epi64(n64, _mm256_set1_epi64x(1023));
  return simd<double, 4>(_mm256_castsi256_pd(_mm256_slli_epi64(biased, 52)));
}

}  // namespace dimmer::util::simd
