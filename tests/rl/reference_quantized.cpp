#include "reference_quantized.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace dimmer::rl::reference {

std::int16_t to_fixed16(double x, std::int32_t scale) {
  double scaled = x * static_cast<double>(scale);
  double r = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;  // round half away
  if (r > std::numeric_limits<std::int16_t>::max())
    return std::numeric_limits<std::int16_t>::max();
  if (r < std::numeric_limits<std::int16_t>::min())
    return std::numeric_limits<std::int16_t>::min();
  return static_cast<std::int16_t>(r);
}

std::vector<std::int32_t> forward_fixed(const QuantizedMlp& q,
                                        const std::vector<double>& x) {
  const std::vector<QuantizedLayer>& layers_ = q.layers();
  const std::int32_t scale_ = q.scale();
  DIMMER_REQUIRE(static_cast<int>(x.size()) == layers_.front().in,
                 "input size mismatch");
  // Quantize the normalized inputs to scale-100 integers.
  std::vector<std::int32_t> cur(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    cur[i] = to_fixed16(x[i], scale_);

  std::vector<std::int32_t> next;
  for (const auto& l : layers_) {
    next.assign(static_cast<std::size_t>(l.out), 0);
    for (int o = 0; o < l.out; ++o) {
      // 64-bit accumulator at scale^2; bias pre-scaled to match.
      std::int64_t acc = static_cast<std::int64_t>(
                             l.b[static_cast<std::size_t>(o)]) *
                         scale_;
      const std::int16_t* wrow = &l.w[static_cast<std::size_t>(o) * l.in];
      // 64-bit products: an int16 weight times a hidden activation above
      // 2^16 overflows int.
      for (int i = 0; i < l.in; ++i)
        acc += static_cast<std::int64_t>(wrow[i]) *
               cur[static_cast<std::size_t>(i)];
      // Back to scale-100; truncation toward zero, like MCU int division.
      std::int32_t v = static_cast<std::int32_t>(acc / scale_);
      if (l.relu && v < 0) v = 0;
      next[static_cast<std::size_t>(o)] = v;
    }
    cur = next;
  }
  return cur;
}

int greedy_action(const QuantizedMlp& q, const std::vector<double>& x) {
  std::vector<std::int32_t> v = forward_fixed(q, x);
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace dimmer::rl::reference
