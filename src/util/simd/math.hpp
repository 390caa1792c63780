// Backend-generic vector math: exp10 for the simd<double, N> value types,
// written once against the primitive API. Its one caller is
// phy::dbm_to_mw_batch, which rebuilds link rows from dBm.
//
// The kernel is a Cephes-style rational approximation (the same family
// glibc's historical libm and most SIMD math layers descend from): reduce
// the argument with a Cody-Waite two-constant split, evaluate a short
// rational P/Q in the reduced argument, then scale by 2^n through direct
// exponent-field construction (exp2i). Accuracy is ~1-2 ulp over the dBm
// range the link rows span.
//
// Determinism contract (DESIGN.md §12):
//  - exp10 dispatches on V::width. At width 1 it calls std::pow(10, x), so
//    a scalar-backend build (DIMMER_SIMD=scalar) is *byte-identical* to
//    code that never heard of util/simd.
//  - At width > 1 the polynomial kernel runs instead. It is a pure lanewise
//    function — no cross-lane reduction — so a result depends only on the
//    input value, never on lane position or batch size.
//  - detail::poly_exp10 is also instantiable at width 1, which is how the
//    unit tests pin its accuracy on every build, including scalar-only.
//
// Precondition: finite inputs.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

#include "util/simd/scalar.hpp"

namespace dimmer::util::simd {

namespace detail {

/// Horner evaluation of a polynomial with coefficients highest-order first.
template <typename V, std::size_t N>
inline V polevl(V x, const double (&coef)[N]) {
  V ans = V::broadcast(coef[0]);
  for (std::size_t i = 1; i < N; ++i) {
    ans = ans * x + V::broadcast(coef[i]);
  }
  return ans;
}

// Cephes exp() rational: exp(r) = 1 + 2r P(r^2) / (Q(r^2) - r P(r^2)) for
// |r| <= 0.5 ln 2.
constexpr double kExpP[] = {1.26177193074810590878e-4,
                            3.02994407707441961300e-2,
                            9.99999999999999999910e-1};
constexpr double kExpQ[] = {3.00198505138664455042e-6,
                            2.52448340349684104192e-3,
                            2.27265548208155028766e-1,
                            2.00000000000000000005e0};

/// The rational in the reduced argument `r` (|r| <= 0.347), scaled by 2^n
/// with n pre-clamped to [-1022, 1024].
template <typename V>
inline V exp_rational_scaled(V r, V n) {
  const V rr = r * r;
  const V p = r * polevl(rr, kExpP);
  const V q = polevl(rr, kExpQ) - p;
  const V e = p / q;
  return (V::broadcast(1.0) + (e + e)) * exp2i(n);
}

constexpr double kLog210 = 3.32192809488736234787e0;  // log2(10)
constexpr double kLg102A = 3.01025390625e-1;          // log10(2) high part
constexpr double kLg102B = 4.60503898119521373889e-6;  // log10(2) low part
constexpr double kLn10 = 2.30258509299404568402e0;
constexpr double kExp10MaxArg = 308.2547155599167;   // log10(DBL_MAX)
constexpr double kExp10MinArg = -307.6526555685888;  // log10(DBL_MIN)

/// 10^x. Reduction is done in base 10 (r = x - n*log10(2), |r| <= 0.1505),
/// then r*ln10 feeds the exp rational. Lanes below log10(DBL_MIN) flush to
/// +0.0 (subnormal results are not produced); lanes above log10(DBL_MAX)
/// saturate to +inf.
template <typename V>
inline V poly_exp10(V x) {
  // Clamp into the normal-result domain *before* reduction: without it, an
  // out-of-domain lane drags a huge reduced argument through the rational
  // and produces subnormal intermediates (an x86 microcode assist, ~100
  // cycles per op) on values the selects below discard anyway.
  const V xc =
      min(max(x, V::broadcast(kExp10MinArg)), V::broadcast(kExp10MaxArg));
  V n = round_nearest(xc * V::broadcast(kLog210));
  n = min(max(n, V::broadcast(-1022.0)), V::broadcast(1024.0));
  const V r =
      ((xc - n * V::broadcast(kLg102A)) - n * V::broadcast(kLg102B)) *
      V::broadcast(kLn10);
  V out = exp_rational_scaled(r, n);
  out = select_lt(x, V::broadcast(kExp10MinArg), V::broadcast(0.0), out);
  out = select_lt(V::broadcast(kExp10MaxArg), x, V::broadcast(
                      std::numeric_limits<double>::infinity()),
                  out);
  return out;
}

}  // namespace detail

/// 10^x. Width 1 uses std::pow(10.0, x) — the exact expression the scalar
/// engine has always used for dBm -> mW — wider backends the kernel.
template <typename V>
inline V exp10(V x) {
  if constexpr (V::width == 1) {
    return V(std::pow(10.0, x.v));
  } else {
    return detail::poly_exp10(x);
  }
}

}  // namespace dimmer::util::simd
