// The embedded DQN inference engine (paper §IV-B "Embedded DQN").
//
// Weights are quantized to 16-bit fixed-point integers with a decimal scale
// of 100 ("two floating digits") and activations are 32-bit integers. Each
// neuron's value is its integer sum, bias·scale plus the weight·activation
// products, divided by the scale and truncated toward zero: exactly what a
// 64-bit integer accumulator gives, so no weight set can overflow it. The
// first layer adds its products column-major in doubles over the non-zero
// inputs and the later layers row-major in int64; both sums are exact, so
// the order does not change a bit (DESIGN.md §17). The deployed policy's
// worst-case sums fit in 32 bits (test_quantized.cpp bounds the committed
// weights), so the integer-only arithmetic of an FPU-less 16-bit MCU (the
// TelosB's MSP430) with 32-bit accumulators, as in the C header
// rl/export.cpp writes, gives the same Q-values. The paper reports 2.1 kB of
// flash for weights and 400 B of RAM for intermediaries;
// flash_bytes()/ram_bytes() let tests and benches check our budget against
// those numbers.
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
  /// Quantizes a trained float network (saturating at int16 range). A NaN
  /// weight or bias throws RequireError.
  explicit QuantizedMlp(const Mlp& net,
                        std::int32_t scale = util::kFixedPointScale);

  /// Integer-only inference. Input values are floats in [-1,1] (the paper's
  /// normalized features); they are quantized to scale-100 on entry, and a
  /// NaN throws RequireError. Returns the Q-values in fixed-point
  /// (scale-100) units.
  std::vector<std::int32_t> forward_fixed(const std::vector<double>& x) const;

  /// Argmax action from integer inference; the first maximum wins a tie.
  /// Allocates nothing while every layer is at most 64 wide.
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
  /// The inference kernel behind every public entry point. `d` holds
  /// 2·width_ doubles and `n` 3·width_ int32 values of scratch; returns the
  /// output layer's activations, which live in `n`.
  const std::int32_t* infer(const std::vector<double>& x, double* d,
                            std::int32_t* n) const;

  std::vector<QuantizedLayer> layers_;
  std::int32_t scale_;
  /// Layer 0 as doubles, for the kernel: its weights column-major
  /// [in][out] and its biases times the scale. Both are exact.
  std::vector<double> cols0_;
  std::vector<double> bias0_;
  std::size_t width_ = 0;  ///< widest layer, inputs or outputs
};

}  // namespace dimmer::rl
