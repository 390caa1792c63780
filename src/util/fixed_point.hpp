// Fixed-point arithmetic matching the paper's embedded DQN (§IV-B):
// weights are stored as 16-bit integers with a decimal scale of 100 (two
// fractional digits). rl::QuantizedMlp keeps 32-bit activations; its
// results equal per-neuron 64-bit integer sums, whatever order it adds
// them in (DESIGN.md §17).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace dimmer::util {

/// The paper's fixed-point scale: "set to 100 (two floating digits)".
constexpr std::int32_t kFixedPointScale = 100;

/// Saturating conversion of a double to a scaled int16 value, rounding half
/// away from zero. A NaN has no fixed-point value: it throws RequireError.
inline std::int16_t to_fixed16(double x,
                               std::int32_t scale = kFixedPointScale) {
  const double scaled = x * static_cast<double>(scale);
  DIMMER_REQUIRE(!std::isnan(scaled), "cannot convert NaN to fixed point");
  // copysign adds -0.5 to -0.0 where a sign test would add +0.5; both
  // truncate to 0. Clamping before the cast keeps it in range.
  const double r = std::clamp(
      scaled + std::copysign(0.5, scaled),
      static_cast<double>(std::numeric_limits<std::int16_t>::min()),
      static_cast<double>(std::numeric_limits<std::int16_t>::max()));
  return static_cast<std::int16_t>(r);
}

/// Inverse of to_fixed16.
inline double from_fixed16(std::int16_t x,
                           std::int32_t scale = kFixedPointScale) {
  return static_cast<double>(x) / static_cast<double>(scale);
}

/// Multiply two scale-S fixed numbers into a scale-S result with 32-bit
/// intermediate (the embedded DQN's MAC step); rounds toward zero like the
/// integer division a 16-bit MCU would perform.
inline std::int32_t fixed_mul(std::int32_t a, std::int32_t b,
                              std::int32_t scale = kFixedPointScale) {
  std::int64_t p = static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b);
  return static_cast<std::int32_t>(p / scale);
}

/// Saturate a 32-bit accumulator back into int16 range (scale preserved).
inline std::int16_t saturate16(std::int32_t x) {
  if (x > std::numeric_limits<std::int16_t>::max())
    return std::numeric_limits<std::int16_t>::max();
  if (x < std::numeric_limits<std::int16_t>::min())
    return std::numeric_limits<std::int16_t>::min();
  return static_cast<std::int16_t>(x);
}

}  // namespace dimmer::util
