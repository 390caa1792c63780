// Property tests for frame_success_prob, pinning two of its contracts
// (DESIGN.md §12):
//
//  1. Monotonicity: with the jammed SINR no better than the clean SINR,
//     success probability is non-increasing in jam_fraction.
//  2. The jam_fraction == 0.0 / == 1.0 short-circuit returns are *bitwise*
//     equal to the general two-pow expression evaluated at those fractions
//     (bits * 0.0 == +0.0, std::pow(x, +0.0) == 1.0, p * 1.0 == p).
//
// and the facts the settled receptions rest on (DESIGN.md §12):
//
//  3. Saturation: from kSaturatedSinrDb up, 1.0 - ber_802154(s) == 1.0, so
//     frame_success_prob's early 1.0 is the bits the full chain computes.
//  4. Floor: at or below kFloorSinrDb, 1 - BER <= 0.678 (the bracket's upper
//     bound below its grid), so a frame of at least 15 B succeeds with
//     probability below 2^-53.
//  5. Margin: the computed chain strays from monotone in its SINR by far
//     less than the bracket's margin, bits * kBracketMarginPerBit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "phy/per.hpp"
#include "phy/reception.hpp"

namespace dimmer::phy {
namespace {

TEST(FrameSuccessProperty, MonotoneNonIncreasingInJamFraction) {
  for (double clean : {-2.0, 0.0, 2.0, 4.0, 8.0, 15.0}) {
    for (double delta : {0.5, 3.0, 10.0, 25.0}) {
      const double jammed = clean - delta;  // jamming never helps
      for (int bytes : {8, 36, 127}) {
        SCOPED_TRACE("clean=" + std::to_string(clean) +
                     " jammed=" + std::to_string(jammed) +
                     " bytes=" + std::to_string(bytes));
        double prev = 2.0;
        for (int i = 0; i <= 200; ++i) {
          const double f = i / 200.0;
          const double p = frame_success_prob(clean, jammed, f, bytes);
          EXPECT_LE(p, prev) << "jam_fraction=" << f;
          EXPECT_GE(p, 0.0);
          EXPECT_LE(p, 1.0);
          prev = p;
        }
      }
    }
  }
}

TEST(FrameSuccessProperty, EqualSinrsMakeExposureIrrelevant) {
  // With zero interference power the jammed SINR equals the clean SINR and
  // the exposure fraction must not matter: (1-b)^(B(1-f)) * (1-b)^(Bf) is
  // (1-b)^B for every f. Allow 1 ulp for the split-product rounding.
  for (double sinr : {-4.0, 1.0, 6.0}) {
    const double base = frame_success_prob(sinr, sinr, 0.0, 36);
    for (double f : {0.1, 0.5, 0.9}) {
      const double p = frame_success_prob(sinr, sinr, f, 36);
      EXPECT_NEAR(p, base, std::abs(base) * 1e-14 + 1e-300) << "f=" << f;
    }
  }
}

// The short-circuits must be invisible: evaluating the general expression at
// the boundary fractions gives the exact same bits the early returns give.
double general_form(double sinr_clean_db, double sinr_jammed_db,
                    double jam_fraction, int frame_bytes) {
  const double bits = 8.0 * frame_bytes;
  const double clean_bits = bits * (1.0 - jam_fraction);
  const double jam_bits = bits * jam_fraction;
  const double ber_clean = ber_802154(sinr_clean_db);
  const double ber_jam = ber_802154(sinr_jammed_db);
  return std::pow(1.0 - ber_clean, clean_bits) *
         std::pow(1.0 - ber_jam, jam_bits);
}

TEST(FrameSuccessProperty, ZeroFractionShortCircuitIsBitwiseContinuous) {
  for (double clean : {-6.0, -1.0, 0.0, 2.5, 7.0, 14.0}) {
    for (double jammed : {-20.0, -6.0, 2.5}) {
      for (int bytes : {1, 36, 127}) {
        EXPECT_EQ(frame_success_prob(clean, jammed, 0.0, bytes),
                  general_form(clean, jammed, 0.0, bytes))
            << "clean=" << clean << " jammed=" << jammed
            << " bytes=" << bytes;
      }
    }
  }
}

TEST(FrameSuccessProperty, FullFractionShortCircuitIsBitwiseContinuous) {
  for (double clean : {-6.0, 0.0, 7.0}) {
    for (double jammed : {-20.0, -6.0, 0.0, 7.0}) {
      for (int bytes : {1, 36, 127}) {
        EXPECT_EQ(frame_success_prob(clean, jammed, 1.0, bytes),
                  general_form(clean, jammed, 1.0, bytes))
            << "clean=" << clean << " jammed=" << jammed
            << " bytes=" << bytes;
      }
    }
  }
}

TEST(FrameSuccessProperty, ClampedFractionsHitTheSameShortCircuits) {
  // Out-of-range fractions clamp onto the boundaries, bitwise.
  EXPECT_EQ(frame_success_prob(5.0, -5.0, -3.0, 36),
            frame_success_prob(5.0, -5.0, 0.0, 36));
  EXPECT_EQ(frame_success_prob(5.0, -5.0, 2.0, 36),
            frame_success_prob(5.0, -5.0, 1.0, 36));
}

// ---------------------------------------------------------------------------
// Settled receptions.

constexpr double kInf = std::numeric_limits<double>::infinity();

// frame_success_prob before the saturation rule, verbatim but for the frame
// check.
double unsaturated_frame_success(double sinr_clean_db, double sinr_jammed_db,
                                 double jam_fraction, int frame_bytes) {
  if (jam_fraction < 0.0) jam_fraction = 0.0;
  if (jam_fraction > 1.0) jam_fraction = 1.0;
  double bits = 8.0 * frame_bytes;
  if (jam_fraction == 0.0)
    return std::pow(1.0 - ber_802154(sinr_clean_db), bits);
  if (jam_fraction == 1.0)
    return std::pow(1.0 - ber_802154(sinr_jammed_db), bits);
  double clean_bits = bits * (1.0 - jam_fraction);
  double jam_bits = bits * jam_fraction;
  double ber_clean = ber_802154(sinr_clean_db);
  double ber_jam = sinr_jammed_db == sinr_clean_db
                       ? ber_clean
                       : ber_802154(sinr_jammed_db);
  return std::pow(1.0 - ber_clean, clean_bits) *
         std::pow(1.0 - ber_jam, jam_bits);
}

TEST(SaturatedSinr, OneMinusBerIsExactlyOne) {
  // 2^-54 is half an ulp below 1.0: the largest BER that still rounds away.
  for (double s = kSaturatedSinrDb; s <= 400.0; s += 1.0 / 1024.0)
    ASSERT_EQ(1.0 - ber_802154(s), 1.0) << "sinr=" << s;
  EXPECT_EQ(1.0 - ber_802154(kInf), 1.0);
  // The margin: 6 dB already saturates; 5.5 dB does not.
  EXPECT_EQ(1.0 - ber_802154(6.0), 1.0);
  EXPECT_LT(1.0 - ber_802154(5.5), 1.0);
}

TEST(SaturatedSinr, FrameSuccessMatchesTheFullChainBitwise) {
  std::vector<double> sinrs;
  for (double s = -40.0; s <= 60.0; s += 0.5) sinrs.push_back(s);
  for (double s : {5.89, 6.99, std::nextafter(kSaturatedSinrDb, 0.0),
                   std::nextafter(kSaturatedSinrDb, kInf), kInf})
    sinrs.push_back(s);
  for (int bytes = 7; bytes <= 133; ++bytes) {
    for (double clean : sinrs) {
      // Equal SINRs, then unequal ones on both sides of the threshold.
      for (double jam : {clean, clean - 4.0, clean - 15.0, 6.5,
                         kSaturatedSinrDb, 30.0}) {
        for (double f : {0.0, 0.25, 1.0}) {
          ASSERT_EQ(frame_success_prob(clean, jam, f, bytes),
                    unsaturated_frame_success(clean, jam, f, bytes))
              << "clean=" << clean << " jam=" << jam << " f=" << f
              << " bytes=" << bytes;
        }
      }
    }
  }
}

/// [-300, -10] dB in `step`s, `fine` steps over its top 2 dB, plus -inf.
std::vector<double> floor_sinrs(double step, double fine) {
  std::vector<double> out;
  for (double s = -300.0; s < kFloorSinrDb - 2.0; s += step) out.push_back(s);
  for (double s = kFloorSinrDb - 2.0; s < kFloorSinrDb; s += fine)
    out.push_back(s);
  out.push_back(kFloorSinrDb);
  out.push_back(-kInf);
  return out;
}

TEST(FloorSinr, OneMinusBerStaysBelowTheBound) {
  for (double s : floor_sinrs(1.0 / 1024.0, 1.0 / 65536.0))
    ASSERT_LE(1.0 - ber_802154(s), 0.678) << "sinr=" << s;
  // The bound is tight at the floor itself.
  EXPECT_GT(1.0 - ber_802154(kFloorSinrDb), 0.6779);
}

TEST(FloorSinr, FramesOfFifteenBytesUpSucceedBelowTwoToMinus53) {
  constexpr int kFifteenBytes = 15;
  const std::vector<double> sinrs = floor_sinrs(1.0, 1.0 / 16.0);
  for (int bytes = kFifteenBytes; bytes <= 133; ++bytes) {
    for (double s : sinrs) {
      for (double f : {0.0, 0.25, 1.0}) {
        ASSERT_LT(frame_success_prob(s, s, f, bytes), 0x1p-53)
            << "sinr=" << s << " f=" << f << " bytes=" << bytes;
        ASSERT_LT(frame_success_prob(s, kFloorSinrDb, f, bytes), 0x1p-53);
        ASSERT_LT(frame_success_prob(kFloorSinrDb, s, f, bytes), 0x1p-53);
      }
    }
  }
}

/// The worst relative drop of p(s) = frame_success_prob(s, s, 0, bytes)
/// below its running maximum along `sinrs` (ascending). Only normal p
/// count: a smaller one is far below every draw the bracket sees.
double worst_drop(const std::vector<double>& sinrs, int bytes) {
  double top = 0.0, worst = 0.0;
  for (double s : sinrs) {
    const double p = frame_success_prob(s, s, 0.0, bytes);
    if (p < std::numeric_limits<double>::min()) continue;
    top = std::max(top, p);
    worst = std::max(worst, 1.0 - p / top);
  }
  return worst;
}

TEST(BracketMargin, CoversTheChainsDriftFromMonotone) {
  // A grid every 1/4096 dB over (-10, 7) dB, then walks of 2000 ulps up
  // from every 0.01 dB.
  std::vector<double> grid;
  for (int k = 1; k < 17 * 4096; ++k) grid.push_back(-10.0 + k / 4096.0);
  for (int bytes : {133, 4096}) {
    SCOPED_TRACE("bytes " + std::to_string(bytes));
    const double margin = 8.0 * bytes * kBracketMarginPerBit;
    double worst = worst_drop(grid, bytes);
    std::vector<double> walk(2000);
    for (int j = 1; j < 1700; ++j) {
      walk[0] = -10.0 + j / 100.0;
      for (std::size_t i = 1; i < walk.size(); ++i)
        walk[i] = std::nextafter(walk[i - 1], kInf);
      worst = std::max(worst, worst_drop(walk, bytes));
    }
    EXPECT_LE(worst, margin / 1000.0);
    // The walks do meet drift: the margin is not covering a perfectly
    // monotone chain.
    EXPECT_GT(worst, 0.0);
  }
}

}  // namespace
}  // namespace dimmer::phy
