#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/fixed_point.hpp"

namespace dimmer::util {
namespace {

TEST(FixedPoint, RoundTripWithinResolution) {
  for (double x : {0.0, 0.5, -0.5, 1.23, -7.77, 42.42}) {
    std::int16_t q = to_fixed16(x);
    EXPECT_NEAR(from_fixed16(q), x, 0.5 / kFixedPointScale + 1e-12);
  }
}

TEST(FixedPoint, RoundsHalfAwayFromZero) {
  EXPECT_EQ(to_fixed16(0.005), 1);    // 0.5 -> 1
  EXPECT_EQ(to_fixed16(-0.005), -1);  // -0.5 -> -1
  EXPECT_EQ(to_fixed16(0.004), 0);
}

TEST(FixedPoint, SaturatesAtInt16Limits) {
  EXPECT_EQ(to_fixed16(1e9), std::numeric_limits<std::int16_t>::max());
  EXPECT_EQ(to_fixed16(-1e9), std::numeric_limits<std::int16_t>::min());
  // Boundary: 327.67 is exactly representable, 327.68 saturates.
  EXPECT_EQ(to_fixed16(327.67), 32767);
  EXPECT_EQ(to_fixed16(327.68), 32767);
}

TEST(FixedPoint, NegativeZeroAndInfinities) {
  EXPECT_EQ(to_fixed16(-0.0), 0);
  EXPECT_EQ(to_fixed16(-0.004), 0);
  EXPECT_EQ(to_fixed16(std::numeric_limits<double>::infinity()),
            std::numeric_limits<std::int16_t>::max());
  EXPECT_EQ(to_fixed16(-std::numeric_limits<double>::infinity()),
            std::numeric_limits<std::int16_t>::min());
}

TEST(FixedPoint, NaNHasNoFixedPointValue) {
  // The cast of a NaN to int16 is undefined behaviour (UBSan's
  // float-cast-overflow reports it); the conversion refuses it instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(to_fixed16(nan), RequireError);
  EXPECT_THROW(to_fixed16(-nan, 1000), RequireError);
  EXPECT_THROW(to_fixed16(std::nan("1"), 1), RequireError);
}

TEST(FixedPoint, MulMatchesFloatWithinResolution) {
  // (1.50 * 2.25) = 3.375; scale-100 fixed: 150 * 225 / 100 = 337 (trunc).
  EXPECT_EQ(fixed_mul(150, 225), 337);
  // Negative operand truncates toward zero like MCU integer division.
  EXPECT_EQ(fixed_mul(-150, 225), -337);
}

TEST(FixedPoint, MulByOneIsIdentity) {
  EXPECT_EQ(fixed_mul(12345, 100), 12345);
}

TEST(FixedPoint, Saturate16Clamps) {
  EXPECT_EQ(saturate16(40000), std::numeric_limits<std::int16_t>::max());
  EXPECT_EQ(saturate16(-40000), std::numeric_limits<std::int16_t>::min());
  EXPECT_EQ(saturate16(1234), 1234);
}

TEST(FixedPoint, CustomScale) {
  std::int16_t q = to_fixed16(1.5, 1000);
  EXPECT_EQ(q, 1500);
  EXPECT_DOUBLE_EQ(from_fixed16(q, 1000), 1.5);
}

}  // namespace
}  // namespace dimmer::util
