#include "rl/quantized.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dimmer::rl {

QuantizedMlp::QuantizedMlp(const Mlp& net, std::int32_t scale)
    : scale_(scale) {
  DIMMER_REQUIRE(scale > 0, "scale must be positive");
  for (const auto& l : net.layers()) {
    QuantizedLayer q;
    q.in = l.in;
    q.out = l.out;
    q.relu = l.relu;
    q.w.reserve(l.w.size());
    q.b.reserve(l.b.size());
    for (double w : l.w) q.w.push_back(util::to_fixed16(w, scale));
    for (double b : l.b) q.b.push_back(util::to_fixed16(b, scale));
    layers_.push_back(std::move(q));
  }
}

std::vector<std::int32_t> QuantizedMlp::forward_fixed(
    const std::vector<double>& x) const {
  DIMMER_REQUIRE(static_cast<int>(x.size()) == layers_.front().in,
                 "input size mismatch");
  // Quantize the normalized inputs to scale-100 integers.
  std::vector<std::int32_t> cur(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    cur[i] = util::to_fixed16(x[i], scale_);

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

int QuantizedMlp::greedy_action(const std::vector<double>& x) const {
  std::vector<std::int32_t> q = forward_fixed(x);
  return static_cast<int>(std::max_element(q.begin(), q.end()) - q.begin());
}

std::vector<double> QuantizedMlp::forward(const std::vector<double>& x) const {
  std::vector<std::int32_t> q = forward_fixed(x);
  std::vector<double> out(q.size());
  for (std::size_t i = 0; i < q.size(); ++i)
    out[i] = static_cast<double>(q[i]) / static_cast<double>(scale_);
  return out;
}

std::size_t QuantizedMlp::flash_bytes() const {
  std::size_t params = 0;
  for (const auto& l : layers_) params += l.w.size() + l.b.size();
  return params * sizeof(std::int16_t);
}

std::size_t QuantizedMlp::ram_bytes() const {
  // Double-buffered activations: input vector + widest output vector of
  // 32-bit intermediaries live simultaneously.
  std::size_t widest = 0;
  std::size_t input = static_cast<std::size_t>(layers_.front().in);
  for (const auto& l : layers_)
    widest = std::max(widest, static_cast<std::size_t>(l.out));
  return (input + widest + widest) * sizeof(std::int32_t);
}

}  // namespace dimmer::rl
