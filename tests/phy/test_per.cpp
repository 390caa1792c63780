#include <gtest/gtest.h>

#include "phy/per.hpp"
#include "util/check.hpp"

namespace dimmer::phy {
namespace {

TEST(Ber, MonotonicallyDecreasingInSinr) {
  double prev = 1.0;
  for (double sinr = -10.0; sinr <= 15.0; sinr += 0.5) {
    double b = ber_802154(sinr);
    EXPECT_LE(b, prev + 1e-12) << "at SINR " << sinr;
    prev = b;
  }
}

TEST(Ber, Bounded) {
  EXPECT_LE(ber_802154(-40.0), 0.5);
  EXPECT_GE(ber_802154(-40.0), 0.0);
  EXPECT_NEAR(ber_802154(30.0), 0.0, 1e-12);
}

TEST(Per, HighSinrMeansReliableFrame) {
  EXPECT_LT(per_802154(10.0, 36), 1e-6);
}

TEST(Per, LowSinrMeansLostFrame) {
  EXPECT_GT(per_802154(-5.0, 36), 0.999);
}

TEST(Per, MonotoneInFrameLength) {
  // Longer frames expose more bits: PER grows with size at fixed SINR.
  double sinr = 1.5;
  double prev = 0.0;
  for (int bytes : {10, 20, 40, 80, 160}) {
    double p = per_802154(sinr, bytes);
    EXPECT_GE(p, prev) << "at " << bytes << " bytes";
    prev = p;
  }
}

TEST(Per, RejectsNonPositiveFrame) {
  EXPECT_THROW(per_802154(5.0, 0), util::RequireError);
  EXPECT_THROW(per_802154(5.0, -3), util::RequireError);
  EXPECT_THROW(frame_success_prob(5.0, 0.0, 0.5, 0), util::RequireError);
  EXPECT_THROW(frame_success_prob(5.0, 0.0, 0.5, -3), util::RequireError);
}

TEST(FrameSuccess, NoJamEqualsCleanPer) {
  double p = frame_success_prob(6.0, -10.0, 0.0, 36);
  EXPECT_NEAR(p, 1.0 - per_802154(6.0, 36), 1e-12);
}

TEST(FrameSuccess, FullJamEqualsJammedPer) {
  double p = frame_success_prob(6.0, -10.0, 1.0, 36);
  EXPECT_NEAR(p, 1.0 - per_802154(-10.0, 36), 1e-12);
}

TEST(FrameSuccess, MonotoneInExposure) {
  double prev = 1.1;
  for (double f = 0.0; f <= 1.0; f += 0.1) {
    double p = frame_success_prob(8.0, -5.0, f, 36);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(FrameSuccess, ClampsOutOfRangeExposure) {
  EXPECT_DOUBLE_EQ(frame_success_prob(8.0, -5.0, -0.5, 36),
                   frame_success_prob(8.0, -5.0, 0.0, 36));
  EXPECT_DOUBLE_EQ(frame_success_prob(8.0, -5.0, 1.5, 36),
                   frame_success_prob(8.0, -5.0, 1.0, 36));
}

// Property sweep: success probability is a valid probability everywhere.
class FrameSuccessSweep : public ::testing::TestWithParam<double> {};

TEST_P(FrameSuccessSweep, IsAProbability) {
  double sinr = GetParam();
  for (double jam_sinr : {-20.0, -5.0, 0.0, 5.0}) {
    for (double f : {0.0, 0.3, 0.7, 1.0}) {
      double p = frame_success_prob(sinr, jam_sinr, f, 36);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SinrRange, FrameSuccessSweep,
                         ::testing::Values(-15.0, -5.0, 0.0, 2.0, 5.0, 10.0,
                                           20.0));

}  // namespace
}  // namespace dimmer::phy
