// Scalar backend for the backend-generic SIMD value type (width 1).
//
// simd<double, 1> wraps a single double and implements the full primitive
// API (load/store, arithmetic, max/min, rounding, a lane select and
// exponent-field scaling) with ordinary scalar operations. Two properties
// matter:
//
//  1. Every primitive is a single IEEE-754 double operation, so code written
//     against the generic API produces *exactly* the scalar instruction
//     sequence when compiled at width 1 — there is no "vectorized but
//     one-lane" penalty and no reassociation.
//  2. max/min follow std::max/std::min semantics ((a < b) ? b : a), which is
//     what the wider backends reproduce with compare+blend (NOT the bare
//     maxpd/minpd instruction, whose NaN/±0 behaviour differs).
//
// The scalar backend is always compiled, regardless of DIMMER_SIMD, so the
// generic polynomial kernel in math.hpp is unit-testable at width 1 on
// every build.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

namespace dimmer::util::simd {

/// Backend-generic SIMD value type. Specialised per (element type, width);
/// the primary template is intentionally undefined.
template <typename T, int N>
struct simd;

template <>
struct simd<double, 1> {
  static constexpr int width = 1;
  using scalar_type = double;

  double v = 0.0;

  simd() = default;
  explicit simd(double x) : v(x) {}

  static simd load(const double* p) { return simd(*p); }
  void store(double* p) const { *p = v; }
  static simd broadcast(double x) { return simd(x); }
  double lane(int) const { return v; }

  friend simd operator+(simd a, simd b) { return simd(a.v + b.v); }
  friend simd operator-(simd a, simd b) { return simd(a.v - b.v); }
  friend simd operator*(simd a, simd b) { return simd(a.v * b.v); }
  friend simd operator/(simd a, simd b) { return simd(a.v / b.v); }
};

/// std::max semantics: (a < b) ? b : a.
inline simd<double, 1> max(simd<double, 1> a, simd<double, 1> b) {
  return simd<double, 1>((a.v < b.v) ? b.v : a.v);
}

/// std::min semantics: (b < a) ? b : a.
inline simd<double, 1> min(simd<double, 1> a, simd<double, 1> b) {
  return simd<double, 1>((b.v < a.v) ? b.v : a.v);
}

/// Round to nearest, ties to even (the default FP environment; matches the
/// vector backends' _MM_FROUND_TO_NEAREST_INT).
inline simd<double, 1> round_nearest(simd<double, 1> x) {
  return simd<double, 1>(std::nearbyint(x.v));
}

/// Lanewise (a < b) ? x : y.
inline simd<double, 1> select_lt(simd<double, 1> a, simd<double, 1> b,
                                 simd<double, 1> x, simd<double, 1> y) {
  return simd<double, 1>((a.v < b.v) ? x.v : y.v);
}

/// 2^n for lanes of `n` holding integer values in [-1022, 1024]. n = 1024
/// yields +inf (exponent field saturates), n = -1023 yields 0; callers clamp
/// or select around those edges before scaling.
inline simd<double, 1> exp2i(simd<double, 1> n) {
  const auto e = static_cast<std::int64_t>(n.v);
  const std::uint64_t bits = static_cast<std::uint64_t>(e + 1023) << 52;
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return simd<double, 1>(out);
}

}  // namespace dimmer::util::simd
