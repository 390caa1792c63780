#include "rl/quantized.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dimmer::rl {

namespace {

/// Nets up to this wide run on stack scratch; the paper's is 31 wide.
constexpr std::size_t kInlineWidth = 64;

/// Calls `kernel(d, n)` with the scratch QuantizedMlp::infer needs for a net
/// `width` wide: on the stack up to kInlineWidth, on the heap beyond.
template <class Kernel>
auto with_scratch(std::size_t width, Kernel&& kernel) {
  if (width <= kInlineWidth) {
    double d[2 * kInlineWidth] = {};
    std::int32_t n[3 * kInlineWidth] = {};
    return kernel(d, n);
  }
  std::vector<double> d(2 * width);
  std::vector<std::int32_t> n(3 * width);
  return kernel(d.data(), n.data());
}

}  // namespace

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
    width_ = std::max({width_, static_cast<std::size_t>(l.in),
                       static_cast<std::size_t>(l.out)});
    layers_.push_back(std::move(q));
  }
  DIMMER_REQUIRE(!layers_.empty(), "network has no layers");
  const QuantizedLayer& l0 = layers_.front();
  // Every partial sum of layer 0 is bounded by |b|·scale + in·2^30 (each
  // |w·x| <= 2^15·2^15); below 2^53 a double holds all of them exactly.
  DIMMER_REQUIRE((std::int64_t{1} << 15) * scale +
                         std::int64_t{l0.in} * (std::int64_t{1} << 30) <
                     (std::int64_t{1} << 53),
                 "first layer too wide for exact inference");
  const auto in0 = static_cast<std::size_t>(l0.in);
  const auto out0 = static_cast<std::size_t>(l0.out);
  cols0_.resize(in0 * out0);
  for (std::size_t o = 0; o < out0; ++o)
    for (std::size_t i = 0; i < in0; ++i)
      cols0_[i * out0 + o] = l0.w[o * in0 + i];
  bias0_.reserve(l0.b.size());
  for (std::int16_t b : l0.b)
    bias0_.push_back(static_cast<double>(std::int64_t{b} * scale));
}

const std::int32_t* QuantizedMlp::infer(const std::vector<double>& x,
                                        double* d, std::int32_t* n) const {
  const QuantizedLayer& l0 = layers_.front();
  DIMMER_REQUIRE(static_cast<int>(x.size()) == l0.in, "input size mismatch");
  const auto in0 = static_cast<std::size_t>(l0.in);
  const auto out0 = static_cast<std::size_t>(l0.out);
  double* const xs = d;            // the non-zero inputs, quantized
  double* const acc = d + width_;  // layer 0's sums
  std::int32_t* const at = n;      // the non-zero inputs' indices
  std::int32_t* cur = n + width_;
  std::int32_t* next = n + 2 * width_;

  // dimmer-lint: hot-path begin — per-decision inference on caller-provided
  // scratch; tests/core/test_policy_alloc.cpp counts its allocations.
  // Quantize the normalized inputs to scale-100 integers and keep the
  // non-zero ones: a zero input adds nothing to any sum.
  std::size_t nz = 0;
  for (std::size_t i = 0; i < in0; ++i) {
    const std::int16_t v = util::to_fixed16(x[i], scale_);
    xs[nz] = v;
    at[nz] = static_cast<std::int32_t>(i);
    nz += v != 0 ? 1 : 0;
  }

  // Layer 0, column-major, two inputs per pass, in doubles. Exactness:
  // - every term is an integer, |b·scale| < 2^46 and |w·x| <= 2^30, and the
  //   constructor bounds every partial sum below 2^53, so each addition is
  //   exact in any order and acc[o] is the int64 sum;
  // - trunc(fl(a/s)) is the int64 quotient a/s. For a = k·s - r, 0 < r < s
  //   (a > 0; a < 0 is symmetric), a/s lies at least 1/s below k. Rounding
  //   moves it by at most 2^(e-53), where 2^e <= a/s; as s·2^e <= a < 2^53,
  //   that is less than 1/s, so fl(a/s) stays in [k-1, k). With r = 0 the
  //   quotient is exact.
  std::copy(bias0_.begin(), bias0_.end(), acc);
  std::size_t j = 0;
  for (; j + 2 <= nz; j += 2) {
    const double* c0 = &cols0_[static_cast<std::size_t>(at[j]) * out0];
    const double* c1 = &cols0_[static_cast<std::size_t>(at[j + 1]) * out0];
    const double x0 = xs[j];
    const double x1 = xs[j + 1];
    for (std::size_t o = 0; o < out0; ++o) acc[o] += c0[o] * x0 + c1[o] * x1;
  }
  if (j < nz) {
    const double* c0 = &cols0_[static_cast<std::size_t>(at[j]) * out0];
    const double x0 = xs[j];
    for (std::size_t o = 0; o < out0; ++o) acc[o] += c0[o] * x0;
  }
  const auto s = static_cast<double>(scale_);
  for (std::size_t o = 0; o < out0; ++o) {
    // |acc/s| < 2^53 fits the int64; the int32 cast wraps as the int64
    // quotient's would.
    auto v = static_cast<std::int32_t>(static_cast<std::int64_t>(acc[o] / s));
    if (l0.relu && v < 0) v = 0;
    cur[o] = v;
  }

  // The later layers, row-major in int64: an int16 weight times a hidden
  // activation above 2^16 overflows int.
  for (std::size_t k = 1; k < layers_.size(); ++k) {
    const QuantizedLayer& l = layers_[k];
    const auto in = static_cast<std::size_t>(l.in);
    for (std::size_t o = 0; o < static_cast<std::size_t>(l.out); ++o) {
      std::int64_t a = std::int64_t{l.b[o]} * scale_;
      const std::int16_t* wrow = &l.w[o * in];
      for (std::size_t i = 0; i < in; ++i) a += std::int64_t{wrow[i]} * cur[i];
      // Back to scale-100; truncation toward zero, like MCU int division.
      auto v = static_cast<std::int32_t>(a / scale_);
      if (l.relu && v < 0) v = 0;
      next[o] = v;
    }
    std::swap(cur, next);
  }
  // dimmer-lint: hot-path end
  return cur;
}

std::vector<std::int32_t> QuantizedMlp::forward_fixed(
    const std::vector<double>& x) const {
  return with_scratch(width_, [&](double* d, std::int32_t* n) {
    const std::int32_t* q = infer(x, d, n);
    return std::vector<std::int32_t>(q, q + layers_.back().out);
  });
}

int QuantizedMlp::greedy_action(const std::vector<double>& x) const {
  return with_scratch(width_, [&](double* d, std::int32_t* n) {
    const std::int32_t* q = infer(x, d, n);
    return static_cast<int>(std::max_element(q, q + layers_.back().out) - q);
  });
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
