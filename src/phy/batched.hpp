// Batched reception for the Glossy step loop (DESIGN.md §12).
//
// reception_success_batch decides a step's receptions in one per-lane
// loop. Each lane's decision is a function of that lane's inputs alone and
// equals the decision of the historical per-listener chain (exact SINRs via
// std::pow / std::log10, then frame_success_prob) on the same draws, so
// results never depend on batch size or lane position.
#pragma once

#include <vector>

#include "phy/per.hpp"

namespace dimmer::phy {

/// The bracket of the settled receptions (DESIGN.md §12). A lane whose
/// uniform is at least kFloorMinUniform (every nonzero Pcg32::uniform() is)
/// is decided without the BER chain when ln(uniform) falls outside the
/// bounds [lo, hi] on ln p_ok, widened by `bits * kBracketMarginPerBit`
/// on each side. The bounds sum, over the SINRs that carry bits, the bit
/// count times bounds on ln(1 - BER):
///  - at or above kSaturatedSinrDb, exactly 0;
///  - at or below kFloorSinrDb, [ln 0.5, ln kFloorOneMinusBer]: the BER is
///    clamped to at most 0.5, and 1 - BER <= kFloorOneMinusBer there;
///  - between, the two neighbours on a grid of kLnOkStepsPerDb points per
///    dB of lambda(s) = log1p(-ber_802154(s)), one table for every frame.
inline constexpr double kFloorSinrDb = -10.0;
inline constexpr double kFloorOneMinusBer = 0.678;
inline constexpr double kFloorMinUniform = 0x1p-53;
inline constexpr int kLnOkStepsPerDb = 64;
/// The margin covers how far the computed chain strays from monotone in
/// its SINR: at most ~1.4e-13 per bit, so 2^-32 (2.3e-10) leaves ~1700x.
/// tests/phy/test_per_property.cpp pins the drift below 1/1000 of the
/// margin.
inline constexpr double kBracketMarginPerBit = 0x1p-32;

/// The approximate SINRs (DESIGN.md §12). A lane is first settled from
/// SINRs computed with approx_log2, which calls no libm function, by the
/// saturation rule and the bracket, both widened by kApproxSinrErrorDb; the
/// bracket's margin grows by kApproxLnUniformError for ln(uniform) from the
/// same log2. The bounds cover approx_log2's error plus the exact path's
/// rounding at ~5e5x and ~5000x the worst measured error (ApproxSinr.* in
/// tests/phy/test_batched.cpp). The guarded domain keeps every operand a
/// positive normal and every SINR small enough that one rounding of it is
/// far below the bound; a lane outside it, or one the widened tests cannot
/// settle, takes the exact path.
inline constexpr double kApproxSinrErrorDb = 0x1p-20;
inline constexpr double kApproxLnUniformError = 0x1p-30;
inline constexpr double kApproxMinPowerMw = 0x1p-600;
inline constexpr double kApproxMaxPowerMw = 0x1p600;
inline constexpr double kApproxMaxFadeDb = 300.0;
inline constexpr double kApproxMaxSinrDb = 4096.0;

/// log2(x) for a positive normal x, from the exponent field, a 128-cell
/// table on the top mantissa bits and four terms of the log series: no libm
/// call, |error| < 4e-13.
double approx_log2(double x);

/// One lane's approximate SINRs, in dB. `in_domain` is false when the lane
/// lies outside the guarded domain, and then the SINRs are unspecified.
/// A zero signal reads -300 dBm with no fade, as mw_to_dbm(0) does.
struct ApproxSinr {
  double clean_db, jam_db;
  bool in_domain;
};
ApproxSinr approx_sinr(double signal_mw, double fade_db, double interf_mw,
                       bool apply_fading, double noise_mw, double noise_dbm);

/// Structure-of-arrays staging buffer for one flood step's receptions.
///
/// The flood engine gathers per-listener inputs (powers, the pre-drawn
/// fading and Bernoulli variates, interference) in listener order, calls
/// reception_success_batch once, then applies the decisions — preserving
/// the historical per-listener RNG draw order exactly (normal before
/// uniform, listeners ascending). Reused across steps/floods; size with
/// resize(n) outside the hot loop, then set `count` per step.
///
/// `p_ok` is the success probability where the lane needed it: a lane
/// with uniform 0.0, or whose draw falls inside the bracket on its exact
/// SINRs, runs the chain and keeps the exact value, and a saturated lane
/// reads exactly 1.0. Any other lane reads 1.0 or 0.0: only the decision
/// `uniform < p_ok` is exact there, not the probability.
struct ReceptionBatch {
  std::vector<double> strongest_mw;  ///< strongest concurrent TX power
  std::vector<double> total_mw;      ///< summed concurrent TX power
  std::vector<double> fade_db;       ///< rng.normal(0, sigma) draw (if fading)
  std::vector<double> interf_mw;     ///< sampled interference power
  std::vector<double> jam_fraction;  ///< interference exposure
  std::vector<double> uniform;       ///< rng.uniform() draw (Bernoulli)
  std::vector<double> p_ok;          ///< output: success probability
  int count = 0;                     ///< active prefix length

  /// Sizes every array to n (count is left to the caller). Amortized: no
  /// reallocation once capacity is established.
  void resize(int n) {
    const auto m = static_cast<std::size_t>(n);
    strongest_mw.resize(m);
    total_mw.resize(m);
    fade_db.resize(m);
    interf_mw.resize(m);
    jam_fraction.resize(m);
    uniform.resize(m);
    p_ok.resize(m);
  }
};

/// What a reception_success_batch call needed: the lanes whose decision
/// took the exact SINRs, and the lanes among them that ran the BER chain.
/// Tests read it; the engine ignores it.
struct ReceptionCounts {
  int exact_sinr = 0;
  int chain = 0;
};

/// Computes p_ok[0, count) from the gathered inputs — the exact reception
/// math of GlossyFlood step 3b:
///
///   signal = strongest + coherence_gain * (total - strongest)
///   if (apply_fading) signal *= 10^(fade_db/10)
///   sinr_clean = mw_to_dbm(signal) - noise_dbm
///   sinr_jam   = interf == 0 ? sinr_clean
///                            : mw_to_dbm(signal) - mw_to_dbm(noise_mw+interf)
///   p_ok = frame_success_prob(sinr_clean, sinr_jam, jam_fraction, frame_bytes)
///
/// A lane is settled from its SINRs before the chain: p_ok = 1.0 when every
/// bit-carrying SINR is at or above kSaturatedSinrDb (the exact value), and
/// 1.0 or 0.0 when its draw falls outside the bracket above (the chain's
/// decision). Both tests run first on the approximate SINRs, widened, and
/// then, for a lane they leave open, on the exact ones. `noise_dbm` must be
/// the caller's hoisted mw_to_dbm(noise_mw) so the zero-interference path
/// reuses its exact bits (as the engine always has). Requires
/// frame_bytes > 0.
ReceptionCounts reception_success_batch(ReceptionBatch& b,
                                        double coherence_gain,
                                        bool apply_fading, double noise_mw,
                                        double noise_dbm, int frame_bytes);

}  // namespace dimmer::phy
