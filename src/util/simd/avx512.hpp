// AVX-512 backend: simd<double, 8> over __m512d.
//
// Only compiled when DIMMER_SIMD_AVX512 is defined (CMake
// -DDIMMER_SIMD=avx512, which adds -mavx512f -mavx512dq). AVX-512DQ provides
// native packed int64<->double conversion, so exp2i avoids the AVX2 bit
// trick; the select uses mask registers. Semantics are identical to the
// other backends: max/min follow std::max/std::min, and all polynomial
// evaluation happens through the same generic kernel in math.hpp.
#pragma once

#ifndef DIMMER_SIMD_AVX512
#error \
    "avx512.hpp requires DIMMER_SIMD_AVX512 (configure with -DDIMMER_SIMD=avx512)"
#endif

#include <immintrin.h>

#include "util/simd/scalar.hpp"

namespace dimmer::util::simd {

// Every lane. The unmasked forms of roundscale, cvtpd_epi64 and slli_epi64
// pass an _mm512_undefined_* source that GCC 12 reports as
// -Wmaybe-uninitialized; their zero-masked forms under a full mask compute
// the same lanes without it.
inline constexpr __mmask8 kAll = 0xFF;

template <>
struct simd<double, 8> {
  static constexpr int width = 8;
  using scalar_type = double;

  __m512d v;

  simd() : v(_mm512_setzero_pd()) {}
  explicit simd(double x) : v(_mm512_set1_pd(x)) {}
  explicit simd(__m512d x) : v(x) {}

  static simd load(const double* p) { return simd(_mm512_loadu_pd(p)); }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static simd broadcast(double x) { return simd(_mm512_set1_pd(x)); }
  double lane(int i) const {
    alignas(64) double tmp[8];
    _mm512_store_pd(tmp, v);
    return tmp[i];
  }

  friend simd operator+(simd a, simd b) {
    return simd(_mm512_add_pd(a.v, b.v));
  }
  friend simd operator-(simd a, simd b) {
    return simd(_mm512_sub_pd(a.v, b.v));
  }
  friend simd operator*(simd a, simd b) {
    return simd(_mm512_mul_pd(a.v, b.v));
  }
  friend simd operator/(simd a, simd b) {
    return simd(_mm512_div_pd(a.v, b.v));
  }
};

inline simd<double, 8> max(simd<double, 8> a, simd<double, 8> b) {
  // (a < b) ? b : a — std::max semantics.
  const __mmask8 lt = _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  return simd<double, 8>(_mm512_mask_blend_pd(lt, a.v, b.v));
}

inline simd<double, 8> min(simd<double, 8> a, simd<double, 8> b) {
  const __mmask8 lt = _mm512_cmp_pd_mask(b.v, a.v, _CMP_LT_OQ);
  return simd<double, 8>(_mm512_mask_blend_pd(lt, a.v, b.v));
}

inline simd<double, 8> round_nearest(simd<double, 8> x) {
  return simd<double, 8>(_mm512_maskz_roundscale_pd(
      kAll, x.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

inline simd<double, 8> select_lt(simd<double, 8> a, simd<double, 8> b,
                                 simd<double, 8> x, simd<double, 8> y) {
  const __mmask8 lt = _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  return simd<double, 8>(_mm512_mask_blend_pd(lt, y.v, x.v));
}

inline simd<double, 8> exp2i(simd<double, 8> n) {
  // AVX-512DQ: exact packed double -> int64 conversion.
  const __m512i n64 = _mm512_maskz_cvtpd_epi64(kAll, n.v);
  const __m512i biased = _mm512_add_epi64(n64, _mm512_set1_epi64(1023));
  return simd<double, 8>(
      _mm512_castsi512_pd(_mm512_maskz_slli_epi64(kAll, biased, 52)));
}

}  // namespace dimmer::util::simd
