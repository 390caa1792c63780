// Streaming and batch statistics helpers used by the evaluation harnesses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace dimmer::util {

/// Welford running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    double d = o.mean_ - mean_;
    std::size_t n = n_ + o.n_;
    m2_ += o.m2_ + d * d * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / static_cast<double>(n);
    mean_ += d * static_cast<double>(o.n_) / static_cast<double>(n);
    n_ = n;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Raw Welford second moment (sum of squared deviations). Together with
  /// count/mean/min/max this is the *complete* internal state: the campaign
  /// journal persists these five fields so a replayed trial's stats merge
  /// bit-identically to the stats of the trial that actually ran.
  double m2() const { return m2_; }

  /// Rebuilds a RunningStats from its serialized internal state. n == 0
  /// restores the pristine default (min/max sentinels included); otherwise
  /// every accessor and every later add()/merge() behaves bit-identically to
  /// the original instance. Throws util::RequireError on non-finite state
  /// or negative m2 (a corrupt journal, not a representable history).
  static RunningStats restore(std::size_t n, double mean, double m2,
                              double min, double max) {
    RunningStats s;
    if (n == 0) return s;
    DIMMER_REQUIRE(std::isfinite(mean) && std::isfinite(m2) &&
                       std::isfinite(min) && std::isfinite(max),
                   "RunningStats::restore: non-finite state");
    DIMMER_REQUIRE(m2 >= 0.0 && min <= max,
                   "RunningStats::restore: inconsistent state");
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Sliding-window mean over the last `capacity` samples (ring buffer).
class WindowMean {
 public:
  explicit WindowMean(std::size_t capacity) : cap_(capacity) {
    DIMMER_REQUIRE(capacity > 0, "WindowMean capacity must be positive");
    buf_.reserve(capacity);
  }

  void add(double x) {
    if (buf_.size() < cap_) {
      // Copied instances lose the ctor's reserve (vector copies drop spare
      // capacity); re-reserve in full so the window's growth phase costs at
      // most one allocation, not a doubling series — steady-state audits
      // count on add() never touching the heap after the first call.
      if (buf_.capacity() < cap_) buf_.reserve(cap_);
      buf_.push_back(x);
      sum_ += x;
    } else {
      sum_ += x - buf_[head_];
      buf_[head_] = x;
      head_ = (head_ + 1) % cap_;
    }
  }

  std::size_t count() const { return buf_.size(); }
  bool full() const { return buf_.size() == cap_; }
  double mean() const {
    return buf_.empty() ? 0.0 : sum_ / static_cast<double>(buf_.size());
  }
  void reset() {
    buf_.clear();
    head_ = 0;
    sum_ = 0.0;
  }

 private:
  std::size_t cap_;
  std::vector<double> buf_;
  std::size_t head_ = 0;
  double sum_ = 0.0;
};

/// Percentile (linear interpolation) of an unsorted sample; p in [0,100].
/// Selects the two neighbouring order statistics with nth_element instead of
/// sorting the whole sample: O(n) expected instead of O(n log n), with
/// bit-identical results (the same two order statistics feed the same
/// interpolation expression).
inline double percentile(std::vector<double> v, double p) {
  DIMMER_REQUIRE(!v.empty(), "percentile of empty sample");
  DIMMER_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]");
  // NaN comparisons violate nth_element/min_element's strict-weak-ordering
  // precondition (UB that in practice selects garbage order statistics
  // silently), and infinities poison the interpolation below. Reject all
  // non-finite samples loudly instead.
  for (double x : v)
    DIMMER_REQUIRE(std::isfinite(x), "percentile sample must be finite");
  if (v.size() == 1) return v[0];
  double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(idx);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = idx - static_cast<double>(lo);
  auto lo_it = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), lo_it, v.end());
  double v_lo = *lo_it;
  // Everything right of lo_it is >= v_lo, so the (lo+1)-th order statistic
  // is the minimum of that suffix.
  double v_hi = (hi == lo) ? v_lo : *std::min_element(lo_it + 1, v.end());
  return v_lo * (1.0 - frac) + v_hi * frac;
}

}  // namespace dimmer::util
