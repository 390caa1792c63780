// The embedded DQN inference engine (paper §IV-B "Embedded DQN").
//
// Weights are quantized to 16-bit fixed-point integers with a decimal scale
// of 100 ("two floating digits"), activations are stored as 32-bit integers,
// and each neuron's products accumulate in a 64-bit integer, so no weight
// set can overflow the sum. The deployed policy's worst-case sums fit in 32
// bits (test_quantized.cpp bounds the committed weights), so the integer-only
// arithmetic of an FPU-less 16-bit MCU (the TelosB's MSP430) with 32-bit
// accumulators, as in the C header rl/export.cpp writes, gives the same
// Q-values. The paper reports 2.1 kB of flash for weights and 400 B of RAM
// for intermediaries; flash_bytes()/ram_bytes() let tests and benches check
// our budget against those numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "rl/mlp.hpp"
#include "util/fixed_point.hpp"

namespace dimmer::rl {

/// One quantized dense layer.
struct QuantizedLayer {
  int in = 0;
  int out = 0;
  bool relu = false;
  std::vector<std::int16_t> w;  // scale-100 fixed point, row-major [out][in]
  std::vector<std::int16_t> b;  // scale-100
};

class QuantizedMlp {
 public:
  /// Quantizes a trained float network (saturating at int16 range).
  explicit QuantizedMlp(const Mlp& net,
                        std::int32_t scale = util::kFixedPointScale);

  /// Integer-only inference. Input values are floats in [-1,1] (the paper's
  /// normalized features); they are quantized to scale-100 on entry.
  /// Returns the Q-values in fixed-point (scale-100) units.
  std::vector<std::int32_t> forward_fixed(const std::vector<double>& x) const;

  /// Convenience: argmax action from integer inference.
  int greedy_action(const std::vector<double>& x) const;

  /// Q-values converted back to floats (for comparisons against the
  /// reference float network).
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Bytes of weight storage (2 B per parameter — the paper's 2.1 kB).
  std::size_t flash_bytes() const;

  /// Peak bytes of intermediate storage during inference (4 B accumulators
  /// for the widest pair of adjacent layers — the paper's 400 B).
  std::size_t ram_bytes() const;

  std::int32_t scale() const { return scale_; }
  const std::vector<QuantizedLayer>& layers() const { return layers_; }

 private:
  std::vector<QuantizedLayer> layers_;
  std::int32_t scale_;
};

}  // namespace dimmer::rl
