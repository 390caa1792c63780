// Reception decisions for the Glossy step loop (DESIGN.md §12).
//
// Reception::success decides one listener. Its decision is a function of
// that listener's inputs alone and equals the decision of the historical
// per-listener chain (exact SINRs via std::pow / std::log10, then
// frame_success_prob) on the same draws.
#pragma once

#include <cstdint>

#include "phy/per.hpp"

namespace dimmer::phy {

/// The bracket of the settled receptions (DESIGN.md §12). A listener whose
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

/// The approximate SINRs (DESIGN.md §12). A listener is first settled from
/// SINRs computed with approx_log2, which calls no libm function, by the
/// saturation rule and the bracket, both widened by kApproxSinrErrorDb; the
/// bracket's margin grows by kApproxLnUniformError for ln(uniform) from the
/// same log2. The bounds cover approx_log2's error plus the exact path's
/// rounding at ~5e5x and ~5000x the worst measured error (ApproxSinr.* in
/// tests/phy/test_reception.cpp). The guarded domain keeps every operand a
/// positive normal and every SINR small enough that one rounding of it is
/// far below the bound; a listener outside it, or one the widened tests
/// cannot settle, takes the exact path.
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

/// One listener's approximate SINRs, in dB. `in_domain` is false when the
/// listener lies outside the guarded domain, and then the SINRs are
/// unspecified. A zero signal reads -300 dBm with no fade, as mw_to_dbm(0)
/// does.
struct ApproxSinr {
  double clean_db, jam_db;
  bool in_domain;
};
ApproxSinr approx_sinr(double signal_mw, double fade_db, double interf_mw,
                       bool apply_fading, double noise_mw, double noise_dbm);

/// The two tables the decisions read, defined in reception.cpp.
struct Log2Cell;
struct LnOkTable;

/// One flood's reception decisions: its constants, built once per flood, so
/// that deciding a listener pays no set-up.
class Reception {
 public:
  /// The path that decided a listener.
  enum class Path : std::uint8_t {
    kApproxSinr,  ///< the approximate SINRs settled it
    kExactSinr,   ///< the exact SINRs settled it
    kChain,       ///< it ran the BER chain
  };

  /// `p_ok` is the success probability where the listener needed it: a
  /// draw of 0.0, or one inside the bracket on the exact SINRs, runs the
  /// chain and keeps the exact value, and a saturated listener reads
  /// exactly 1.0. Any other listener reads 1.0 or 0.0: only the decision
  /// `uniform < p_ok` is exact there, not the probability.
  struct Decision {
    double p_ok;
    Path path;
  };

  /// `noise_dbm` must be the caller's hoisted mw_to_dbm(noise_mw), so the
  /// zero-interference path reuses its exact bits (as the engine always
  /// has). Requires frame_bytes > 0: a settled listener skips
  /// frame_success_prob, which used to be the only check of the length.
  Reception(double coherence_gain, bool apply_fading, double noise_mw,
            double noise_dbm, int frame_bytes);

  /// Decides one listener from its inputs — the exact reception math of
  /// GlossyFlood step 3b:
  ///
  ///   signal = strongest + coherence_gain * (total - strongest)
  ///   if (apply_fading) signal *= 10^(fade_db/10)
  ///   sinr_clean = mw_to_dbm(signal) - noise_dbm
  ///   sinr_jam   = interf == 0 ? sinr_clean
  ///                            : mw_to_dbm(signal) - mw_to_dbm(noise_mw+interf)
  ///   p_ok = frame_success_prob(sinr_clean, sinr_jam, jam_fraction, frame_bytes)
  ///
  /// The listener is settled from its SINRs before the chain: p_ok = 1.0
  /// when every bit-carrying SINR is at or above kSaturatedSinrDb (the
  /// exact value), and 1.0 or 0.0 when its draw falls outside the bracket
  /// above (the chain's decision). Both tests run first on the approximate
  /// SINRs, widened, and then, if they leave it open, on the exact ones.
  Decision success(double strongest_mw, double total_mw, double fade_db,
                   double interf_mw, double jam_fraction,
                   double uniform) const;

 private:
  double coherence_gain_;
  double noise_mw_;
  double noise_dbm_;
  double bits_;  ///< 8 * frame_bytes_
  int frame_bytes_;
  bool apply_fading_;
  const Log2Cell* log2_;
  const LnOkTable* ln_ok_;
};

}  // namespace dimmer::phy
