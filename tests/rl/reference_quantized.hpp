// Frozen row-major inference, kept verbatim as the differential oracle for
// QuantizedMlp's kernel (DESIGN.md §17). This is the original
// QuantizedMlp::forward_fixed: every input quantized by the original
// to_fixed16, then per layer and neuron one int64 sum in row order, bias
// first, divided by the scale. It must never be "optimised" — its only job
// is to stay the definition the shipped kernel is checked against, bit for
// bit, by test_quantized_differential.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "rl/quantized.hpp"

namespace dimmer::rl::reference {

/// The original saturating, round-half-away-from-zero conversion. Its cast
/// of a NaN is undefined behaviour: never pass one.
std::int16_t to_fixed16(double x, std::int32_t scale);

/// The original forward_fixed over `q`'s layers and scale.
std::vector<std::int32_t> forward_fixed(const QuantizedMlp& q,
                                        const std::vector<double>& x);

/// The original greedy_action: the first maximum of forward_fixed.
int greedy_action(const QuantizedMlp& q, const std::vector<double>& x);

}  // namespace dimmer::rl::reference
