#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "util/simd/simd.hpp"

namespace dimmer::util::simd {
namespace {

using s1 = simd<double, 1>;

// Maps a double's bit pattern onto a monotone signed-integer line so that
// |ordered(a) - ordered(b)| counts the representable doubles between a and b.
std::int64_t ordered_bits(double x) {
  std::int64_t i;
  std::memcpy(&i, &x, sizeof(i));
  return i < 0 ? static_cast<std::int64_t>(0x8000000000000000ULL) - i : i;
}

std::int64_t ulp_diff(double a, double b) {
  if (a == b) return 0;  // covers +0.0 vs -0.0
  const std::int64_t d = ordered_bits(a) - ordered_bits(b);
  return d < 0 ? -d : d;
}

// ---------------------------------------------------------------------------
// Backend identity.

TEST(SimdBackend, NameMatchesNativeWidth) {
  const std::string name = backend_name();
  if (native_width == 8) {
    EXPECT_EQ(name, "avx512");
  } else if (native_width == 4) {
    EXPECT_EQ(name, "avx2");
  } else {
    EXPECT_EQ(native_width, 1);
    EXPECT_EQ(name, "scalar");
  }
  EXPECT_EQ(vdouble::width, native_width);
}

// ---------------------------------------------------------------------------
// Primitive API, exercised on the native vector type. Inputs go through
// load/store so every lane carries a distinct value.

TEST(SimdPrimitives, LoadStoreBroadcastLaneRoundTrip) {
  constexpr int w = native_width;
  double in[w], out[w];
  for (int i = 0; i < w; ++i) in[i] = 1.5 * i - 3.0;
  const vdouble v = vdouble::load(in);
  v.store(out);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(out[i], in[i]);
    EXPECT_EQ(v.lane(i), in[i]);
  }
  const vdouble b = vdouble::broadcast(2.25);
  for (int i = 0; i < w; ++i) EXPECT_EQ(b.lane(i), 2.25);
}

TEST(SimdPrimitives, ArithmeticIsLanewiseIeee) {
  constexpr int w = native_width;
  double a[w], b[w], got[w];
  for (int i = 0; i < w; ++i) {
    a[i] = 0.1 * (i + 1);
    b[i] = 3.7 - 0.5 * i;
  }
  (vdouble::load(a) + vdouble::load(b)).store(got);
  for (int i = 0; i < w; ++i) EXPECT_EQ(got[i], a[i] + b[i]);
  (vdouble::load(a) - vdouble::load(b)).store(got);
  for (int i = 0; i < w; ++i) EXPECT_EQ(got[i], a[i] - b[i]);
  (vdouble::load(a) * vdouble::load(b)).store(got);
  for (int i = 0; i < w; ++i) EXPECT_EQ(got[i], a[i] * b[i]);
  (vdouble::load(a) / vdouble::load(b)).store(got);
  for (int i = 0; i < w; ++i) EXPECT_EQ(got[i], a[i] / b[i]);
}

TEST(SimdPrimitives, MaxMinFollowStdSemantics) {
  constexpr int w = native_width;
  double a[w], b[w], got_max[w], got_min[w];
  for (int i = 0; i < w; ++i) {
    a[i] = (i % 2 == 0) ? 1.0 + i : -2.0 * i;
    b[i] = 0.5 * i;
  }
  max(vdouble::load(a), vdouble::load(b)).store(got_max);
  min(vdouble::load(a), vdouble::load(b)).store(got_min);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(got_max[i], std::max(a[i], b[i]));
    EXPECT_EQ(got_min[i], std::min(a[i], b[i]));
  }
}

TEST(SimdPrimitives, RoundNearestTiesToEven) {
  const double in[] = {0.5, 1.5, 2.5, -0.5, -1.5, 3.2, -3.8, 4.0};
  for (double x : in) {
    constexpr int w = native_width;
    double got[w];
    round_nearest(vdouble::broadcast(x)).store(got);
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(got[i], std::nearbyint(x)) << "x=" << x;
    }
  }
}

TEST(SimdPrimitives, SelectsAreLanewise) {
  constexpr int w = native_width;
  double a[w], b[w], got[w];
  for (int i = 0; i < w; ++i) {
    a[i] = static_cast<double>(i);
    b[i] = static_cast<double>(w - i);  // a < b exactly for i < w/2 (w>1)
  }
  select_lt(vdouble::load(a), vdouble::load(b), vdouble::broadcast(1.0),
            vdouble::broadcast(-1.0))
      .store(got);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(got[i], a[i] < b[i] ? 1.0 : -1.0) << "lane " << i;
  }
}

TEST(SimdPrimitives, Exp2iBuildsExactPowersOfTwo) {
  for (int e : {-1022, -512, -1, 0, 1, 52, 511, 1023}) {
    constexpr int w = native_width;
    double got[w];
    exp2i(vdouble::broadcast(static_cast<double>(e))).store(got);
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(got[i], std::ldexp(1.0, e)) << "e=" << e;
    }
  }
  // The documented saturation edge: n == 1024 overflows the exponent field
  // into +inf, which is exactly what the exp kernels rely on.
  constexpr int w = native_width;
  double got[w];
  exp2i(vdouble::broadcast(1024.0)).store(got);
  for (int i = 0; i < w; ++i) {
    EXPECT_EQ(got[i], std::numeric_limits<double>::infinity());
  }
}

// ---------------------------------------------------------------------------
// The exp10 kernel at width 1. detail::poly_exp10 is instantiable at width 1
// on every build (including DIMMER_SIMD=scalar), so these accuracy pins run
// everywhere.

TEST(SimdMathKernels, PolyExp10WithinUlpOfStd) {
  for (double x = -305.0; x <= 305.0; x += 0.3117) {
    const double got = detail::poly_exp10(s1(x)).v;
    const double want = std::pow(10.0, x);
    EXPECT_LE(ulp_diff(got, want), 4) << "x=" << x << " got=" << got
                                      << " want=" << want;
  }
}

TEST(SimdMathKernels, PolyExp10FlushesAndSaturates) {
  EXPECT_EQ(detail::poly_exp10(s1(-320.0)).v, 0.0);
  EXPECT_EQ(detail::poly_exp10(s1(320.0)).v,
            std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------------
// Public dispatch: width 1 must be the literal std:: call (bit-identity is
// the scalar backend's whole determinism story).

TEST(SimdMathDispatch, WidthOneIsBitwiseStd) {
  for (double x = -50.0; x <= 50.0; x += 0.917) {
    EXPECT_EQ(exp10(s1(x * 3.0)).v, std::pow(10.0, x * 3.0));
  }
}

// ---------------------------------------------------------------------------
// Lanewise purity on the native type: a value's result must not depend on
// which lane it occupies. Rotate the inputs through every lane and demand
// bit-identical per-value results.

TEST(SimdMathNative, ResultsAreLanePositionIndependent) {
  constexpr int w = native_width;
  double base[w];
  for (int i = 0; i < w; ++i) base[i] = -3.0 + 1.618 * i;
  double ref[w];
  exp10(vdouble::load(base)).store(ref);
  for (int rot = 1; rot < w; ++rot) {
    double in[w], out[w];
    for (int i = 0; i < w; ++i) in[i] = base[(i + rot) % w];
    exp10(vdouble::load(in)).store(out);
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(out[i], ref[(i + rot) % w]) << "rot=" << rot << " lane=" << i;
    }
  }
}

TEST(SimdMathNative, NativeExpMatchesStdWithinUlp) {
  // exp10, the one exp kernel. On the scalar backend this is exact
  // (std::pow IS the implementation); on wider backends the polynomial
  // kernel must stay within a few ulp.
  const std::int64_t bound = native_width == 1 ? 0 : 4;
  constexpr int w = native_width;
  for (double x = -40.0; x <= 40.0; x += 0.73) {
    double got[w];
    exp10(vdouble::broadcast(x)).store(got);
    for (int i = 0; i < w; ++i) {
      EXPECT_LE(ulp_diff(got[i], std::pow(10.0, x)), bound) << "x=" << x;
    }
  }
}

}  // namespace
}  // namespace dimmer::util::simd
