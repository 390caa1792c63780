#include <gtest/gtest.h>

#include "sim/time.hpp"

namespace dimmer::sim {
namespace {

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(ms(1), 1000);
  EXPECT_EQ(seconds(1), 1000000);
  EXPECT_EQ(minutes(2), 120000000);
  EXPECT_EQ(hours(1), 3600000000LL);
  EXPECT_DOUBLE_EQ(to_ms(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(2500000), 2.5);
}

}  // namespace
}  // namespace dimmer::sim
