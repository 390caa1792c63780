#include "phy/batched.hpp"

#include <algorithm>
#include <array>
#include <numbers>

#include "util/check.hpp"

namespace dimmer::phy {

namespace {

using util::simd::native_width;
using util::simd::vdouble;

// Tail policy: remainders (count % native_width) are copied into a benign
// stack pad and run through the *same* kernel, so a value's result never
// depends on whether it landed in a full chunk or the tail. Every backend
// runs this one code path; at native_width == 1 there is never a tail, and
// each chunk is one lane of the historical scalar expressions.
constexpr int kW = native_width;

}  // namespace

void dbm_to_mw_batch(const double* dbm, double* mw, int count) {
  const vdouble ten = vdouble::broadcast(10.0);
  int i = 0;
  for (; i + kW <= count; i += kW) {
    util::simd::exp10(vdouble::load(dbm + i) / ten).store(mw + i);
  }
  if (i < count) {
    double pad_in[kW] = {};
    double pad_out[kW];
    std::copy(dbm + i, dbm + count, pad_in);
    util::simd::exp10(vdouble::load(pad_in) / ten).store(pad_out);
    std::copy(pad_out, pad_out + (count - i), mw + i);
  }
}

namespace {

// Rule 1 (per.hpp) over the whole lane: every SINR that carries bits (the
// clean one unless the clamped exposure is 1, the jammed one unless it is
// 0) is saturated, so every factor is exactly 1.0, and so is
// frame_success_prob.
bool saturated(double sinr_clean_db, double sinr_jam_db, double jam_fraction) {
  return (jam_fraction >= 1.0 || sinr_clean_db >= kSaturatedSinrDb) &&
         (jam_fraction <= 0.0 || sinr_jam_db >= kSaturatedSinrDb);
}

// The bracket (batched.hpp). Grid point k sits at kFloorSinrDb +
// k / kLnOkStepsPerDb dB; the last one is kSaturatedSinrDb.
constexpr int kLnOkLast = static_cast<int>(
    (kSaturatedSinrDb - kFloorSinrDb) * kLnOkStepsPerDb);
constexpr double kLnMinUniform = -53.0 * std::numbers::ln2;  // ln 2^-53

struct LnOkTable {
  std::array<double, kLnOkLast + 1> grid;  // lambda at each grid point
  double floor_hi;                         // ln kFloorOneMinusBer
};

// Built once, read-only after: the same for every frame, backend and thread.
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

// Where a lane's draw falls against the bracket on ln p_ok.
enum class Bracket { kSuccess, kFailure, kInside };

// Requires uniform >= kFloorMinUniform. Clamps the exposure and splits the
// bits as frame_success_prob does, and bounds each SINR that carries bits.
// The tests read !(f >= 1) and !(f <= 0) so that a NaN exposure gives NaN
// bit counts and bounds, and the chain decides the lane.
Bracket bracket(const LnOkTable& t, double uniform, double sinr_clean_db,
                double sinr_jam_db, double jam_fraction, double bits) {
  if (jam_fraction < 0.0) jam_fraction = 0.0;
  if (jam_fraction > 1.0) jam_fraction = 1.0;
  double lo = 0.0, hi = 0.0;
  if (!(jam_fraction >= 1.0)) {
    const double clean_bits = bits * (1.0 - jam_fraction);
    const LnOkBounds c = ln_ok_bounds(t, sinr_clean_db);
    lo += clean_bits * c.lo;
    hi += clean_bits * c.hi;
  }
  if (!(jam_fraction <= 0.0)) {
    const double jam_bits = bits * jam_fraction;
    const LnOkBounds j = ln_ok_bounds(t, sinr_jam_db);
    lo += jam_bits * j.lo;
    hi += jam_bits * j.hi;
  }
  const double margin = bits * kBracketMarginPerBit;
  // Every draw is at least 2^-53: below that, no log is needed.
  if (hi + margin < kLnMinUniform) return Bracket::kFailure;
  const double ln_u = std::log(uniform);
  if (ln_u < lo - margin) return Bracket::kSuccess;
  if (ln_u >= hi + margin) return Bracket::kFailure;
  return Bracket::kInside;
}

// The SINRs of one kW-lane chunk of the step-3b reception chain. Pointers
// index the chunk's first element; lanes are independent listeners. The
// pure() annotation cuts a name-resolution artifact: `vdouble::load` (a
// register load) shares its name with the allocating `rl::Mlp::load`.
// dimmer-lint: pure(may-allocate)
inline void sinr_chunk(const double* strongest, const double* total,
                       const double* fade, const double* interf,
                       double coherence_gain, bool apply_fading,
                       double noise_mw, double noise_dbm, double* sinr_clean,
                       double* sinr_jam) {
  using util::simd::select_eq;
  const vdouble s = vdouble::load(strongest);
  const vdouble t = vdouble::load(total);
  vdouble sig = s + vdouble::broadcast(coherence_gain) * (t - s);
  if (apply_fading) {
    sig = sig * util::simd::exp10(vdouble::load(fade) /
                                  vdouble::broadcast(10.0));
  }
  const vdouble sig_dbm = simd_kernels::mw_to_dbm_kernel(sig);
  const vdouble clean = sig_dbm - vdouble::broadcast(noise_dbm);
  const vdouble iv = vdouble::load(interf);
  const vdouble denom_dbm =
      simd_kernels::mw_to_dbm_kernel(vdouble::broadcast(noise_mw) + iv);
  clean.store(sinr_clean);
  select_eq(iv, vdouble::broadcast(0.0), clean, sig_dbm - denom_dbm)
      .store(sinr_jam);
}

// The BER chain over one chunk of queued lanes (same annotation as above).
// dimmer-lint: pure(may-allocate)
inline void success_chunk(const double* sinr_clean, const double* sinr_jam,
                          const double* frac, int frame_bytes, double* p_ok) {
  simd_kernels::frame_success_kernel(vdouble::load(sinr_clean),
                                     vdouble::load(sinr_jam),
                                     vdouble::load(frac), frame_bytes)
      .store(p_ok);
}

}  // namespace

int reception_success_batch(ReceptionBatch& b, double coherence_gain,
                            bool apply_fading, double noise_mw,
                            double noise_dbm, int frame_bytes) {
  // A settled lane skips frame_success_prob, which used to be the only
  // check of the frame length.
  DIMMER_REQUIRE(frame_bytes > 0, "frame_bytes must be positive");
  const int count = b.count;
  DIMMER_DEBUG_ASSERT(count <= static_cast<int>(b.strongest_mw.size()),
                      "ReceptionBatch count exceeds its arrays");
  // 1. SINRs of every lane: full chunks, then the tail through a benign
  //    pad (1 mW signal, no fading/interference) that keeps every lane
  //    inside the kernels' (positive, finite) domain.
  int i = 0;
  for (; i + kW <= count; i += kW) {
    sinr_chunk(b.strongest_mw.data() + i, b.total_mw.data() + i,
               b.fade_db.data() + i, b.interf_mw.data() + i, coherence_gain,
               apply_fading, noise_mw, noise_dbm, b.sinr_clean_db.data() + i,
               b.sinr_jam_db.data() + i);
  }
  if (i < count) {
    double pad_s[kW], pad_t[kW], pad_f[kW], pad_i[kW];
    double out_clean[kW], out_jam[kW];
    for (int l = 0; l < kW; ++l) {
      pad_s[l] = 1.0;
      pad_t[l] = 1.0;
      pad_f[l] = 0.0;
      pad_i[l] = 0.0;
    }
    std::copy(b.strongest_mw.data() + i, b.strongest_mw.data() + count,
              pad_s);
    std::copy(b.total_mw.data() + i, b.total_mw.data() + count, pad_t);
    std::copy(b.fade_db.data() + i, b.fade_db.data() + count, pad_f);
    std::copy(b.interf_mw.data() + i, b.interf_mw.data() + count, pad_i);
    sinr_chunk(pad_s, pad_t, pad_f, pad_i, coherence_gain, apply_fading,
               noise_mw, noise_dbm, out_clean, out_jam);
    std::copy(out_clean, out_clean + (count - i),
              b.sinr_clean_db.data() + i);
    std::copy(out_jam, out_jam + (count - i), b.sinr_jam_db.data() + i);
  }
  // 2. Settle each lane by the saturation rule or the bracket, or queue it
  //    for the chain.
  const LnOkTable& table = ln_ok_table();
  const double bits = 8.0 * frame_bytes;
  int pending = 0;
  for (int l = 0; l < count; ++l) {
    const auto u = static_cast<std::size_t>(l);
    const double clean = b.sinr_clean_db[u];
    const double jam = b.sinr_jam_db[u];
    const double frac = b.jam_fraction[u];
    Bracket at = Bracket::kInside;
    if (saturated(clean, jam, frac)) {
      at = Bracket::kSuccess;
    } else if (b.uniform[u] >= kFloorMinUniform) {
      at = bracket(table, b.uniform[u], clean, jam, frac, bits);
    }
    if (at == Bracket::kInside) {
      b.unsettled[static_cast<std::size_t>(pending++)] = l;
    } else {
      b.p_ok[u] = at == Bracket::kSuccess ? 1.0 : 0.0;
    }
  }
  // 3. The chain over the queued lanes, kW at a time. Every chunk is
  //    gathered into a pad, the last one padded with benign 0 dB lanes, so
  //    a lane's result never depends on its position in the queue.
  for (int k = 0; k < pending; k += kW) {
    const int* lanes = b.unsettled.data() + k;
    const int m = std::min(kW, pending - k);
    double pad_clean[kW] = {}, pad_jam[kW] = {}, pad_frac[kW] = {};
    double pad_out[kW];
    for (int l = 0; l < m; ++l) {
      const auto u = static_cast<std::size_t>(lanes[l]);
      pad_clean[l] = b.sinr_clean_db[u];
      pad_jam[l] = b.sinr_jam_db[u];
      pad_frac[l] = b.jam_fraction[u];
    }
    success_chunk(pad_clean, pad_jam, pad_frac, frame_bytes, pad_out);
    for (int l = 0; l < m; ++l)
      b.p_ok[static_cast<std::size_t>(lanes[l])] = pad_out[l];
  }
  return pending;
}

}  // namespace dimmer::phy
