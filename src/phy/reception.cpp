#include "phy/reception.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "phy/propagation.hpp"
#include "util/check.hpp"

namespace dimmer::phy {

// approx_log2's table (reception.hpp). Cell j covers the mantissas
// [1 + j/128, 1 + (j+1)/128) and holds c = 1/(its midpoint), rounded, with
// -log2(c) of that rounded value, so that log2(m) = log2(m*c) - log2(c)
// holds for the stored c and m*c - 1 lies within 2^-8 of 0.
struct Log2Cell {
  double neg_log2_inv, inv;
};

// The bracket (reception.hpp). Grid point k sits at kFloorSinrDb +
// k / kLnOkStepsPerDb dB; the last one is kSaturatedSinrDb.
constexpr int kLnOkLast = static_cast<int>(
    (kSaturatedSinrDb - kFloorSinrDb) * kLnOkStepsPerDb);

struct LnOkTable {
  std::array<double, kLnOkLast + 1> grid;  // lambda at each grid point
  double floor_hi;                         // ln kFloorOneMinusBer
};

namespace {

constexpr int kLog2CellBits = 7;
using Log2Table = std::array<Log2Cell, 1 << kLog2CellBits>;

// Built once, read-only after, like the lambda table below.
const Log2Table& log2_table() {
  static const Log2Table table = [] {
    Log2Table t{};
    const auto cells = static_cast<double>(t.size());
    for (std::size_t j = 0; j < t.size(); ++j) {
      const double inv =
          1.0 / (1.0 + (static_cast<double>(j) + 0.5) / cells);
      t[j] = {-std::log2(inv), inv};
    }
    return t;
  }();
  return table;
}

// log2(x) for a positive normal x: the exponent field, the cell's
// -log2(c), and log2(1 + r) for r = m*c - 1 (|r| <= 2^-8) by the first four
// terms of its series, which leave at most |r|^5 / (5 ln 2) < 2.7e-13.
inline double log2_of(const Log2Cell* t, double x) {
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kOne = std::uint64_t{1023} << 52;
  constexpr double k1 = std::numbers::log2e;
  constexpr double k2 = -std::numbers::log2e / 2.0;
  constexpr double k3 = std::numbers::log2e / 3.0;
  constexpr double k4 = -std::numbers::log2e / 4.0;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const double e = static_cast<double>(static_cast<int>(bits >> 52) - 1023);
  const double m = std::bit_cast<double>((bits & kMantissa) | kOne);
  const Log2Cell& c = t[static_cast<std::size_t>((bits & kMantissa) >>
                                                 (52 - kLog2CellBits))];
  const double r = m * c.inv - 1.0;
  return e + (c.neg_log2_inv + r * (k1 + r * (k2 + r * (k3 + r * k4))));
}

// dB per octave, 10 log10(2): 10 log10(x) = kDbPerLog2 * log2(x).
constexpr double kDbPerLog2 = 3.01029995663981195214;

// The approximate SINRs of one listener (reception.hpp, approx_sinr).
// `sig` is its coherent signal, the same double the exact path scales.
inline ApproxSinr approx_sinr_of(const Log2Cell* t, double sig, double fade,
                                 double interf, bool apply_fading,
                                 double noise_mw, double noise_dbm) {
  ApproxSinr a{0.0, 0.0, false};
  double sig_dbm = -300.0;  // mw_to_dbm(0): a zero signal has no fade
  if (sig != 0.0) {
    if (!(sig >= kApproxMinPowerMw && sig <= kApproxMaxPowerMw)) return a;
    sig_dbm = kDbPerLog2 * log2_of(t, sig);
    if (apply_fading) {
      if (!(std::abs(fade) <= kApproxMaxFadeDb)) return a;
      sig_dbm += fade;
    }
  }
  a.clean_db = sig_dbm - noise_dbm;
  a.jam_db = a.clean_db;
  if (interf != 0.0) {
    const double denom = noise_mw + interf;
    if (!(denom >= kApproxMinPowerMw && denom <= kApproxMaxPowerMw)) return a;
    a.jam_db = sig_dbm - kDbPerLog2 * log2_of(t, denom);
  }
  // Also false for a NaN or infinite SINR.
  a.in_domain = std::abs(a.clean_db) <= kApproxMaxSinrDb &&
                std::abs(a.jam_db) <= kApproxMaxSinrDb;
  return a;
}

// Rule 1 (per.hpp) over the whole listener: every SINR that carries bits (the
// clean one unless the clamped exposure is 1, the jammed one unless it is
// 0) is saturated, so every factor is exactly 1.0, and so is
// frame_success_prob.
bool saturated(double sinr_clean_db, double sinr_jam_db, double jam_fraction) {
  return (jam_fraction >= 1.0 || sinr_clean_db >= kSaturatedSinrDb) &&
         (jam_fraction <= 0.0 || sinr_jam_db >= kSaturatedSinrDb);
}

constexpr double kLnMinUniform = -53.0 * std::numbers::ln2;  // ln 2^-53

// Built once, read-only after: the same for every frame and thread.
const LnOkTable& ln_ok_table() {
  static const LnOkTable table = [] {
    LnOkTable t{};
    for (int k = 0; k <= kLnOkLast; ++k) {
      t.grid[static_cast<std::size_t>(k)] = std::log1p(
          -ber_802154(kFloorSinrDb + k / static_cast<double>(kLnOkStepsPerDb)));
    }
    t.floor_hi = std::log(kFloorOneMinusBer);
    return t;
  }();
  return table;
}

struct LnOkBounds {
  double lo, hi;
};

// Bounds on ln(1 - BER) at one SINR. The grid index is formed only inside
// (kFloorSinrDb, kSaturatedSinrDb), so no NaN or out-of-range double is
// converted; at the top, nextafter(7, 0) + 10 rounds up to 17. A NaN SINR
// gets NaN bounds, which no draw falls outside of: the chain decides it.
LnOkBounds ln_ok_bounds(const LnOkTable& t, double sinr_db) {
  if (sinr_db >= kSaturatedSinrDb) return {0.0, 0.0};
  if (sinr_db > kFloorSinrDb) {
    const int k = std::min(
        static_cast<int>((sinr_db - kFloorSinrDb) * kLnOkStepsPerDb),
        kLnOkLast - 1);
    return {t.grid[static_cast<std::size_t>(k)],
            t.grid[static_cast<std::size_t>(k + 1)]};
  }
  if (sinr_db <= kFloorSinrDb) return {-std::numbers::ln2, t.floor_hi};
  return {sinr_db, sinr_db};
}

// Where a listener's draw falls against the bracket on ln p_ok.
enum class Bracket { kSuccess, kFailure, kInside };

// The saturation rule, then, for a draw of at least kFloorMinUniform, the
// bracket, on SINRs known to within `err_db` of (clean, jam): each lower
// bound comes from the SINR less err_db and each upper one from the SINR
// plus err_db, which is sound because lambda is monotone. `ln` gives ln u
// to within `ln_err`, which widens the margin. Clamps the exposure and
// splits the bits as frame_success_prob does; the tests read !(f >= 1) and
// !(f <= 0) so that a NaN exposure gives NaN bounds, and the listener
// stays open.
template <typename Ln>
Bracket settle(const LnOkTable& t, double uniform, double clean, double jam,
               double jam_fraction, double bits, double err_db, double ln_err,
               Ln ln) {
  if (saturated(clean - err_db, jam - err_db, jam_fraction))
    return Bracket::kSuccess;
  if (!(uniform >= kFloorMinUniform)) return Bracket::kInside;
  if (jam_fraction < 0.0) jam_fraction = 0.0;
  if (jam_fraction > 1.0) jam_fraction = 1.0;
  double lo = 0.0, hi = 0.0;
  if (!(jam_fraction >= 1.0)) {
    const double clean_bits = bits * (1.0 - jam_fraction);
    lo += clean_bits * ln_ok_bounds(t, clean - err_db).lo;
    hi += clean_bits * ln_ok_bounds(t, clean + err_db).hi;
  }
  if (!(jam_fraction <= 0.0)) {
    const double jam_bits = bits * jam_fraction;
    lo += jam_bits * ln_ok_bounds(t, jam - err_db).lo;
    hi += jam_bits * ln_ok_bounds(t, jam + err_db).hi;
  }
  const double margin = bits * kBracketMarginPerBit + ln_err;
  // Every draw is at least 2^-53: below that, no log is needed.
  if (hi + margin < kLnMinUniform) return Bracket::kFailure;
  const double ln_u = ln(uniform);
  if (ln_u < lo - margin) return Bracket::kSuccess;
  if (ln_u >= hi + margin) return Bracket::kFailure;
  return Bracket::kInside;
}

}  // namespace

double approx_log2(double x) { return log2_of(log2_table().data(), x); }

ApproxSinr approx_sinr(double signal_mw, double fade_db, double interf_mw,
                       bool apply_fading, double noise_mw, double noise_dbm) {
  return approx_sinr_of(log2_table().data(), signal_mw, fade_db, interf_mw,
                        apply_fading, noise_mw, noise_dbm);
}

Reception::Reception(double coherence_gain, bool apply_fading,
                     double noise_mw, double noise_dbm, int frame_bytes)
    : coherence_gain_(coherence_gain),
      noise_mw_(noise_mw),
      noise_dbm_(noise_dbm),
      bits_(8.0 * frame_bytes),
      frame_bytes_(frame_bytes),
      apply_fading_(apply_fading),
      log2_(log2_table().data()),
      ln_ok_(&ln_ok_table()) {
  // A settled listener skips frame_success_prob, which used to be the only
  // check of the frame length.
  DIMMER_REQUIRE(frame_bytes > 0, "frame_bytes must be positive");
}

Reception::Decision Reception::success(double strongest_mw, double total_mw,
                                       double fade_db, double interf_mw,
                                       double jam_fraction,
                                       double uniform) const {
  const Log2Cell* log2t = log2_;
  const auto approx_ln = [log2t](double u) {
    return std::numbers::ln2 * log2_of(log2t, u);
  };
  const auto exact_ln = [](double u) { return std::log(u); };
  // One signal feeds both paths.
  double sig = strongest_mw + coherence_gain_ * (total_mw - strongest_mw);
  // 1. The approximate SINRs, widened by their error bound.
  const ApproxSinr a = approx_sinr_of(log2t, sig, fade_db, interf_mw,
                                      apply_fading_, noise_mw_, noise_dbm_);
  if (a.in_domain) {
    const Bracket at =
        settle(*ln_ok_, uniform, a.clean_db, a.jam_db, jam_fraction, bits_,
               kApproxSinrErrorDb, kApproxLnUniformError, approx_ln);
    if (at != Bracket::kInside)
      return {at == Bracket::kSuccess ? 1.0 : 0.0, Path::kApproxSinr};
  }
  // 2. Otherwise the exact path: the historical expressions, the same two
  //    tests unwidened, then the chain.
  if (apply_fading_) sig *= std::pow(10.0, fade_db / 10.0);
  const double sig_dbm = mw_to_dbm(sig);
  const double clean = sig_dbm - noise_dbm_;
  const double jam =
      interf_mw == 0.0 ? clean : sig_dbm - mw_to_dbm(noise_mw_ + interf_mw);
  const Bracket at = settle(*ln_ok_, uniform, clean, jam, jam_fraction, bits_,
                            0.0, 0.0, exact_ln);
  if (at != Bracket::kInside)
    return {at == Bracket::kSuccess ? 1.0 : 0.0, Path::kExactSinr};
  return {frame_success_prob(clean, jam, jam_fraction, frame_bytes_),
          Path::kChain};
}

}  // namespace dimmer::phy
