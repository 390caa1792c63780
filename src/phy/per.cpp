#include "phy/per.hpp"

#include <cmath>

#include "util/check.hpp"

namespace dimmer::phy {

namespace {
// C(16, k) for k = 0..16.
constexpr double kBinom16[17] = {
    1,    16,   120,  560,   1820,  4368, 8008, 11440, 12870,
    11440, 8008, 4368, 1820, 560,   120,  16,   1};
}  // namespace

double ber_802154(double sinr_db) {
  // BER = (8/15) * (1/16) * sum_{k=2}^{16} (-1)^k C(16,k) exp(20*SINR*(1/k-1))
  // (e.g. TinyOS/TOSSIM CPM and 802.15.4-2006 Annex E).
  double sinr = std::pow(10.0, sinr_db / 10.0);
  double acc = 0.0;
  for (int k = 2; k <= 16; ++k) {
    double term = kBinom16[k] * std::exp(20.0 * sinr * (1.0 / k - 1.0));
    acc += (k % 2 == 0) ? term : -term;
  }
  double ber = (8.0 / 15.0) * (1.0 / 16.0) * acc;
  if (ber < 0.0) ber = 0.0;
  if (ber > 0.5) ber = 0.5;
  return ber;
}

namespace {
// One (1 - BER)^bits factor of frame_success_prob. At kSaturatedSinrDb and
// above, the expression is exactly 1.0 (per.hpp), so it returns 1.0 without
// the 15-exp chain and the pow.
double success_factor(double sinr_db, double bits) {
  if (sinr_db >= kSaturatedSinrDb) return 1.0;
  return std::pow(1.0 - ber_802154(sinr_db), bits);
}
}  // namespace

double per_802154(double sinr_db, int frame_bytes) {
  DIMMER_REQUIRE(frame_bytes > 0, "frame_bytes must be positive");
  double ber = ber_802154(sinr_db);
  double bits = 8.0 * frame_bytes;
  return 1.0 - std::pow(1.0 - ber, bits);
}

double frame_success_prob(double sinr_clean_db, double sinr_jammed_db,
                          double jam_fraction, int frame_bytes) {
  DIMMER_REQUIRE(frame_bytes > 0, "frame_bytes must be positive");
  if (jam_fraction < 0.0) jam_fraction = 0.0;
  if (jam_fraction > 1.0) jam_fraction = 1.0;
  double bits = 8.0 * frame_bytes;
  // Degenerate fractions short-circuit one ber_802154 evaluation (15 exp
  // calls) and one pow. Bit-identical to the general expression below:
  // bits * 0.0 == +0.0, pow(x, +0.0) == 1.0, and p * 1.0 == p exactly.
  if (jam_fraction == 0.0) return success_factor(sinr_clean_db, bits);
  if (jam_fraction == 1.0) return success_factor(sinr_jammed_db, bits);
  double clean_bits = bits * (1.0 - jam_fraction);
  double jam_bits = bits * jam_fraction;
  // Equal SINRs (zero interference power under a nonzero exposure) give
  // bitwise-equal BERs; skip the duplicate evaluation. Saturated ones take
  // the 1.0 * 1.0 below.
  if (sinr_jammed_db == sinr_clean_db && sinr_clean_db < kSaturatedSinrDb) {
    double ok = 1.0 - ber_802154(sinr_clean_db);
    return std::pow(ok, clean_bits) * std::pow(ok, jam_bits);
  }
  return success_factor(sinr_clean_db, clean_bits) *
         success_factor(sinr_jammed_db, jam_bits);
}

}  // namespace dimmer::phy
