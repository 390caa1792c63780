// Packet error rate for IEEE 802.15.4 O-QPSK with DSSS.
//
// We use the standard analytic chain (as in TOSSIM and the 802.15.4 std
// annex): SINR -> symbol/bit error rate of the 16-ary orthogonal modulation,
// then PER = 1 - (1 - BER)^(8 * frame_bytes) assuming independent bit errors.
#pragma once

namespace dimmer::phy {

/// SINR (dB) from which a (1 - BER)^bits factor is exactly 1.0. From here
/// up the computed BER is below 2^-54, so 1.0 - ber == 1.0 and
/// pow(1.0, bits) == 1.0; the highest SINR where 1.0 - ber != 1.0 is
/// 5.89 dB. frame_success_prob returns such a factor without evaluating the
/// chain (DESIGN.md §12, "Settled receptions").
inline constexpr double kSaturatedSinrDb = 7.0;

/// Bit error rate as a function of SINR in dB.
double ber_802154(double sinr_db);

/// Packet error rate for a frame of `frame_bytes` (PHY payload incl. headers)
/// at the given SINR. Monotonically decreasing in SINR.
double per_802154(double sinr_db, int frame_bytes);

/// Success probability for a frame where a fraction `jam_fraction` of the
/// bits see `sinr_jammed_db` and the remainder see `sinr_clean_db`.
/// This models an interference burst overlapping only part of the frame.
double frame_success_prob(double sinr_clean_db, double sinr_jammed_db,
                          double jam_fraction, int frame_bytes);

}  // namespace dimmer::phy
