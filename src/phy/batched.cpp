#include "phy/batched.hpp"

#include <algorithm>
#include <cmath>

#include "phy/propagation.hpp"
#include "util/check.hpp"

namespace dimmer::phy {

namespace {

using util::simd::native_width;
using util::simd::vdouble;

// Tail policy: remainders (count % native_width) are copied into a benign
// stack pad and run through the *same* vector kernel, so a value's result
// never depends on whether it landed in a full chunk or the tail. (At
// native_width == 1 there is no tail and the loops below are the plain
// scalar loops.)
constexpr int kW = native_width;

}  // namespace

void dbm_to_mw_batch(const double* dbm, double* mw, int count) {
  if constexpr (kW == 1) {
    for (int i = 0; i < count; ++i) mw[i] = dbm_to_mw(dbm[i]);
  } else {
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
}

void ber_802154_batch(const double* sinr_db, double* ber, int count) {
  if constexpr (kW == 1) {
    using s1 = util::simd::simd<double, 1>;
    for (int i = 0; i < count; ++i) {
      ber[i] = simd_kernels::ber_802154_kernel(s1(sinr_db[i])).v;
    }
  } else {
    int i = 0;
    for (; i + kW <= count; i += kW) {
      simd_kernels::ber_802154_kernel(vdouble::load(sinr_db + i))
          .store(ber + i);
    }
    if (i < count) {
      double pad_in[kW] = {};
      double pad_out[kW];
      std::copy(sinr_db + i, sinr_db + count, pad_in);
      simd_kernels::ber_802154_kernel(vdouble::load(pad_in)).store(pad_out);
      std::copy(pad_out, pad_out + (count - i), ber + i);
    }
  }
}

void frame_success_prob_batch(const double* sinr_clean_db,
                              const double* sinr_jammed_db,
                              const double* jam_fraction, int frame_bytes,
                              double* p_ok, int count) {
  DIMMER_REQUIRE(frame_bytes > 0, "frame_bytes must be positive");
  if constexpr (kW == 1) {
    for (int i = 0; i < count; ++i) {
      p_ok[i] = frame_success_prob(sinr_clean_db[i], sinr_jammed_db[i],
                                   jam_fraction[i], frame_bytes);
    }
  } else {
    int i = 0;
    for (; i + kW <= count; i += kW) {
      simd_kernels::frame_success_kernel(vdouble::load(sinr_clean_db + i),
                                         vdouble::load(sinr_jammed_db + i),
                                         vdouble::load(jam_fraction + i),
                                         frame_bytes)
          .store(p_ok + i);
    }
    if (i < count) {
      double pad_clean[kW] = {};
      double pad_jam[kW] = {};
      double pad_frac[kW] = {};
      double pad_out[kW];
      std::copy(sinr_clean_db + i, sinr_clean_db + count, pad_clean);
      std::copy(sinr_jammed_db + i, sinr_jammed_db + count, pad_jam);
      std::copy(jam_fraction + i, jam_fraction + count, pad_frac);
      simd_kernels::frame_success_kernel(
          vdouble::load(pad_clean), vdouble::load(pad_jam),
          vdouble::load(pad_frac), frame_bytes)
          .store(pad_out);
      std::copy(pad_out, pad_out + (count - i), p_ok + i);
    }
  }
}

namespace {

// Whether every SINR that carries bits satisfies `pred`: the clean one
// unless the clamped exposure is 1, the jammed one unless it is 0 — the
// factors frame_success_prob gives a nonzero bit count.
template <typename Pred>
bool every_carrying_sinr(double sinr_clean_db, double sinr_jam_db,
                         double jam_fraction, Pred pred) {
  return (jam_fraction >= 1.0 || pred(sinr_clean_db)) &&
         (jam_fraction <= 0.0 || pred(sinr_jam_db));
}

// Rule 2 (batched.hpp): the exact p_ok is below 2^-53 <= uniform, so the
// decision is "no reception" without the chain.
bool floored(double uniform, double sinr_clean_db, double sinr_jam_db,
             double jam_fraction, int frame_bytes) {
  return uniform >= kFloorMinUniform && frame_bytes >= kFloorMinFrameBytes &&
         every_carrying_sinr(sinr_clean_db, sinr_jam_db, jam_fraction,
                             [](double s) { return s <= kFloorSinrDb; });
}

// Rule 1 (per.hpp) over the whole lane: every factor is exactly 1.0, and so
// is frame_success_prob.
bool saturated(double sinr_clean_db, double sinr_jam_db, double jam_fraction) {
  return every_carrying_sinr(sinr_clean_db, sinr_jam_db, jam_fraction,
                             [](double s) { return s >= kSaturatedSinrDb; });
}

// The SINRs of one vector chunk of the step-3b reception chain. Pointers
// index the chunk's first element; lanes are independent listeners. The
// pure() annotation cuts a name-resolution artifact: `vdouble::load` (a
// register load) shares its name with the allocating `TraceDataset::load`.
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

void reception_success_batch(ReceptionBatch& b, double coherence_gain,
                             bool apply_fading, double noise_mw,
                             double noise_dbm, int frame_bytes) {
  // A settled lane skips frame_success_prob, which used to be the only
  // check of the frame length.
  DIMMER_REQUIRE(frame_bytes > 0, "frame_bytes must be positive");
  const int count = b.count;
  DIMMER_DEBUG_ASSERT(count <= static_cast<int>(b.strongest_mw.size()),
                      "ReceptionBatch count exceeds its arrays");
  if constexpr (kW == 1) {
    // The historical per-listener expressions, verbatim: this path is what
    // keeps the scalar backend byte-identical to the pre-SIMD engine. Rule 1
    // runs inside frame_success_prob; rule 2 skips it.
    for (int i = 0; i < count; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const double strongest = b.strongest_mw[u];
      double signal_mw =
          strongest + coherence_gain * (b.total_mw[u] - strongest);
      if (apply_fading)
        signal_mw *= std::pow(10.0, b.fade_db[u] / 10.0);
      const double signal_dbm = mw_to_dbm(signal_mw);
      const double sinr_clean_db = signal_dbm - noise_dbm;
      const double sinr_jam_db =
          b.interf_mw[u] == 0.0
              ? sinr_clean_db
              : signal_dbm - mw_to_dbm(noise_mw + b.interf_mw[u]);
      b.p_ok[u] = floored(b.uniform[u], sinr_clean_db, sinr_jam_db,
                          b.jam_fraction[u], frame_bytes)
                      ? 0.0
                      : frame_success_prob(sinr_clean_db, sinr_jam_db,
                                           b.jam_fraction[u], frame_bytes);
    }
  } else {
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
    // 2. Settle each lane by the two rules, or queue it for the chain.
    int pending = 0;
    for (int l = 0; l < count; ++l) {
      const auto u = static_cast<std::size_t>(l);
      const double clean = b.sinr_clean_db[u];
      const double jam = b.sinr_jam_db[u];
      const double frac = b.jam_fraction[u];
      if (saturated(clean, jam, frac)) {
        b.p_ok[u] = 1.0;
      } else if (floored(b.uniform[u], clean, jam, frac, frame_bytes)) {
        b.p_ok[u] = 0.0;
      } else {
        b.unsettled[static_cast<std::size_t>(pending++)] = l;
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
  }
}

}  // namespace dimmer::phy
