#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "phy/per.hpp"
#include "phy/propagation.hpp"
#include "phy/reception.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {
namespace {

// ---------------------------------------------------------------------------
// Reception::success: the full step-3b chain against a literal transcription
// of the historical per-listener expressions.

struct Sinrs {
  double clean_db, jam_db;
};

Sinrs reference_sinrs(double signal_mw, double fade_db, double interf_mw,
                      bool apply_fading, double noise_mw, double noise_dbm) {
  if (apply_fading) signal_mw *= std::pow(10.0, fade_db / 10.0);
  const double signal_dbm = mw_to_dbm(signal_mw);
  const double sinr_clean_db = signal_dbm - noise_dbm;
  const double sinr_jam_db = interf_mw == 0.0
                                 ? sinr_clean_db
                                 : signal_dbm - mw_to_dbm(noise_mw + interf_mw);
  return {sinr_clean_db, sinr_jam_db};
}

double reference_reception(double strongest, double total, double fade_db,
                           double interf_mw, double jam_fraction,
                           double coherence_gain, bool apply_fading,
                           double noise_mw, double noise_dbm,
                           int frame_bytes) {
  const Sinrs s =
      reference_sinrs(strongest + coherence_gain * (total - strongest),
                      fade_db, interf_mw, apply_fading, noise_mw, noise_dbm);
  return frame_success_prob(s.clean_db, s.jam_db, jam_fraction, frame_bytes);
}

TEST(Reception, MatchesReferenceChain) {
  const double noise_mw = dbm_to_mw(-87.0);
  const double noise_dbm = mw_to_dbm(noise_mw);
  for (bool fading : {false, true}) {
    SCOPED_TRACE(fading ? "fading on" : "fading off");
    const Reception rx(0.2, fading, noise_mw, noise_dbm, 36);
    util::Pcg32 rng(1234);
    for (int i = 0; i < 26; ++i) {
      const double strongest = dbm_to_mw(-90.0 + 30.0 * rng.uniform());
      const double total = strongest * (1.0 + rng.uniform());
      const double fade = rng.normal(0.0, 3.0);
      // Mix zero- and nonzero-interference listeners.
      const double interf = (i % 3 == 0) ? 0.0 : dbm_to_mw(-95.0);
      const double frac = (i % 3 == 0) ? 0.0 : rng.uniform();
      const double p_ok =
          rx.success(strongest, total, fade, interf, frac, 0.0).p_ok;
      const double want = reference_reception(
          strongest, total, fade, interf, frac, 0.2, fading, noise_mw,
          noise_dbm, 36);
      // Draws of 0.0 run every unsaturated listener through the chain, so
      // p_ok is the probability itself.
      EXPECT_EQ(p_ok, want) << "listener " << i;
      EXPECT_GE(p_ok, 0.0);
      EXPECT_LE(p_ok, 1.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Settled receptions (DESIGN.md §12): listeners decided from their SINRs
// before the BER chain must take the decision the full chain takes.

/// One listener's inputs, built from target SINRs: no fading, coherence
/// gain 0, so the signal is `strongest`; `jam_db` below `clean_db` sets the
/// interference power, and jam_db == clean_db means none.
struct Lane {
  double strongest_mw, interf_mw, jam_fraction;
};

constexpr double kNoiseDbm = -87.0;

Lane lane_at(double clean_db, double jam_db, double jam_fraction) {
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double signal_mw = dbm_to_mw(kNoiseDbm + clean_db);
  const double interf_mw =
      jam_db < clean_db ? signal_mw / dbm_to_mw(jam_db) - noise_mw : 0.0;
  return {signal_mw, interf_mw, jam_fraction};
}

/// A lane's decision at draw `u`, under a Reception without fading or
/// coherent combining.
Reception::Decision lane_success(const Reception& rx, const Lane& l,
                                 double u) {
  return rx.success(l.strongest_mw, l.strongest_mw, 0.0, l.interf_mw,
                    l.jam_fraction, u);
}

/// The lanes of every class: saturated (every bit-carrying SINR >= 7 dB),
/// below the grid (every one <= -10 dB), and on it (between, or one SINR
/// on each side under a partial exposure).
std::vector<Lane> settled_mix() {
  return {
      // Saturated; the third's jammed SINR carries no bits.
      lane_at(25.0, 25.0, 0.0), lane_at(9.0, 8.0, 0.5),
      lane_at(30.0, -20.0, 0.0),
      // Below the grid; the third's clean SINR carries no bits.
      lane_at(-14.0, -14.0, 0.0), lane_at(-11.0, -25.0, 0.4),
      lane_at(15.0, -30.0, 1.0), lane_at(-20.0, -20.0, 1.0),
      // On the grid.
      lane_at(2.0, 2.0, 0.0), lane_at(4.0, -2.0, 0.3),
      lane_at(12.0, -15.0, 0.25), lane_at(-9.0, -12.0, 0.6),
      lane_at(0.5, 0.5, 0.7), lane_at(5.5, 5.5, 0.0),
  };
}
constexpr int kSaturatedLanes = 3;

TEST(Reception, SettledLanesTakeTheFullChainDecision) {
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  const std::vector<Lane> lanes = settled_mix();
  util::Pcg32 rng(2024);
  for (int frame_bytes : {14, 15}) {
    SCOPED_TRACE("frame_bytes " + std::to_string(frame_bytes));
    const Reception rx(0.0, false, noise_mw, noise_dbm, frame_bytes);
    std::vector<double> want(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const Lane& l = lanes[i];
      want[i] = reference_reception(l.strongest_mw, l.strongest_mw, 0.0,
                                    l.interf_mw, l.jam_fraction, 0.0, false,
                                    noise_mw, noise_dbm, frame_bytes);
    }
    // How many lanes ran the chain: at draws of 0.0 every lane but the
    // saturated ones; at 0.5, none, since no lane's p_ok lies near 0.5.
    const auto chain_runs = [&](double u) {
      int runs = 0;
      for (const Lane& l : lanes)
        runs += lane_success(rx, l, u).path == Reception::Path::kChain;
      return runs;
    };
    EXPECT_EQ(chain_runs(0.0),
              static_cast<int>(lanes.size()) - kSaturatedLanes);
    EXPECT_EQ(chain_runs(0.5), 0);
    // Each lane's decision at draws around its exact p_ok, and every other
    // lane's at a random draw.
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      for (double u : {0.0, 0x1p-53, std::nextafter(want[i], 0.0), want[i],
                       rng.uniform()}) {
        for (std::size_t j = 0; j < lanes.size(); ++j) {
          const double drawn = rng.uniform();
          const double v = j == i ? u : drawn;
          EXPECT_EQ(v < lane_success(rx, lanes[j], v).p_ok, v < want[j])
              << "lane " << j << " u=" << v << " want=" << want[j];
        }
      }
    }
  }
}

TEST(Reception, RejectsNonPositiveFrame) {
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  // Both lanes settle without the chain at a valid length, so the check
  // cannot be left to frame_success_prob: the constructor makes it.
  const Reception valid(0.0, false, noise_mw, noise_dbm, 24);
  for (const Lane& l : {lane_at(25.0, 25.0, 0.0), lane_at(-30.0, -30.0, 0.0)})
    EXPECT_NE(lane_success(valid, l, 0.5).path, Reception::Path::kChain);
  for (int frame_bytes : {0, -24}) {
    EXPECT_THROW(Reception(0.0, false, noise_mw, noise_dbm, frame_bytes),
                 util::RequireError);
  }
}

// ---------------------------------------------------------------------------
// The bracket (reception.hpp, DESIGN.md §12): a listener decided from
// bounds on ln p_ok takes the decision of the chain on its exact SINRs.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The chain on one listener.
double chain(double clean_db, double jam_db, double jam_fraction,
             int frame_bytes) {
  return frame_success_prob(clean_db, jam_db, jam_fraction, frame_bytes);
}

/// A transcription of the bracket: its lower and upper edges on ln p_ok,
/// the margin included.
struct Edges {
  double lo, hi;
};

Edges bracket_edges(double clean_db, double jam_db, double jam_fraction,
                    int frame_bytes) {
  constexpr int kLast = static_cast<int>((kSaturatedSinrDb - kFloorSinrDb) *
                                         kLnOkStepsPerDb);
  const auto bound = [](double s, int upper) {
    if (s >= kSaturatedSinrDb) return 0.0;
    if (s <= kFloorSinrDb)
      return std::log(upper ? kFloorOneMinusBer : 0.5);
    const int k = std::min(
        static_cast<int>((s - kFloorSinrDb) * kLnOkStepsPerDb), kLast - 1);
    return std::log1p(-ber_802154(
        kFloorSinrDb + (k + upper) / static_cast<double>(kLnOkStepsPerDb)));
  };
  const double f = std::clamp(jam_fraction, 0.0, 1.0);
  const double bits = 8.0 * frame_bytes;
  const double margin = bits * kBracketMarginPerBit;
  Edges e{-margin, margin};
  if (f < 1.0) {
    e.lo += bits * (1.0 - f) * bound(clean_db, 0);
    e.hi += bits * (1.0 - f) * bound(clean_db, 1);
  }
  if (f > 0.0) {
    e.lo += bits * f * bound(jam_db, 0);
    e.hi += bits * f * bound(jam_db, 1);
  }
  return e;
}

/// The SINRs the bracket cases visit: [-10.5, 7.5] dB at every grid point
/// (1/64 dB) and at one random point inside every cell; half the
/// approximate SINRs' bound either side of every grid point in [-10, 7],
/// where the cell under the approximate SINR and the one under the exact
/// SINR differ; and the ulps around both ends of the grid and around some
/// grid points.
std::vector<double> bracket_sinrs() {
  std::vector<double> out;
  util::Pcg32 rng(64);
  for (int k = 0; k < 18 * kLnOkStepsPerDb; ++k) {
    const double s = -10.5 + k / static_cast<double>(kLnOkStepsPerDb);
    out.push_back(s);
    out.push_back(s + rng.uniform() / kLnOkStepsPerDb);
    if (s >= kFloorSinrDb && s <= kSaturatedSinrDb) {
      out.push_back(s - kApproxSinrErrorDb / 2);
      out.push_back(s + kApproxSinrErrorDb / 2);
    }
  }
  out.push_back(7.5);
  for (double s : {kFloorSinrDb, kSaturatedSinrDb, -9.0, -3.5, 0.0, 2.25}) {
    out.push_back(std::nextafter(s, -kInf));
    out.push_back(std::nextafter(s, kInf));
  }
  return out;
}

/// One listener at clean SINR `clean_db`: its signal is 1 mW (0 dBm
/// exactly) and the noise is `-clean_db` dBm; `jam_gap_db` below that sets
/// the interference power, and 0 means none, so the jammed SINR equals the
/// clean one.
struct Variant {
  double jam_fraction, jam_gap_db;
};

/// Single-SINR listeners (exposure 0, exposure 1, and equal SINRs under a
/// partial exposure), then mixed ones.
constexpr Variant kVariants[] = {{0.0, 0.0},  {1.0, 0.0},  {0.37, 0.0},
                                 {0.3, 3.0},  {0.6, 12.0}, {1.0, 2.0},
                                 {0.05, 25.0}};

/// A variant's interference power at clean SINR `clean_db`.
double variant_interf_mw(const Variant& v, double clean_db) {
  return v.jam_gap_db > 0.0
             ? dbm_to_mw(v.jam_gap_db - clean_db) - dbm_to_mw(-clean_db)
             : 0.0;
}

TEST(Reception, BracketTakesTheChainDecision) {
  // Draws per listener: both bracket edges and their neighbours, half a
  // margin either side of each edge, the exact p_ok and its neighbours,
  // +-1e-9 relative, and two random draws.
  constexpr int kDraws = 17;
  util::Pcg32 rng(4096);
  long checked = 0;
  for (int frame_bytes : {1, 14, 15, 18, 20, 36, 133}) {
    SCOPED_TRACE("frame_bytes " + std::to_string(frame_bytes));
    const double margin = 8.0 * frame_bytes * kBracketMarginPerBit;
    for (double clean_db : bracket_sinrs()) {
      const double noise_mw = dbm_to_mw(-clean_db);
      const Reception rx(0.0, false, noise_mw, -clean_db, frame_bytes);
      for (const Variant& v : kVariants) {
        const double interf_mw = variant_interf_mw(v, clean_db);
        const double f = v.jam_fraction;
        // The exact SINRs, from the transcription.
        const Sinrs exact =
            reference_sinrs(1.0, 0.0, interf_mw, false, noise_mw, -clean_db);
        ASSERT_EQ(exact.clean_db, clean_db);
        const double jam_db = exact.jam_db;
        const double p = chain(clean_db, jam_db, f, frame_bytes);
        const Edges e = bracket_edges(clean_db, jam_db, f, frame_bytes);
        const double draws[kDraws] = {
            std::exp(e.lo), std::nextafter(std::exp(e.lo), 0.0),
            std::nextafter(std::exp(e.lo), 1.0), std::exp(e.hi),
            std::nextafter(std::exp(e.hi), 0.0),
            std::nextafter(std::exp(e.hi), 1.0), std::exp(e.lo - margin / 2),
            std::exp(e.lo + margin / 2), std::exp(e.hi - margin / 2),
            std::exp(e.hi + margin / 2), std::nextafter(p, 0.0), p,
            std::nextafter(p, 1.0), p * (1.0 - 1e-9), p * (1.0 + 1e-9),
            rng.uniform(), rng.uniform()};
        const bool saturated =
            (f >= 1.0 || clean_db >= kSaturatedSinrDb) &&
            (f <= 0.0 || jam_db >= kSaturatedSinrDb);
        for (double u : draws) {
          // Draws outside [0, 1) never come from Pcg32::uniform();
          // saturated listeners are the saturation rule's, pinned above.
          if (!(u >= 0.0 && u < 1.0) || saturated) continue;
          ASSERT_EQ(u < rx.success(1.0, 1.0, 0.0, interf_mw, f, u).p_ok, u < p)
              << "clean=" << clean_db << " jam=" << jam_db << " f=" << f
              << " u=" << u << " chain=" << p;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 3000000);
}

TEST(Reception, BracketEdgesSitWhereTheTranscriptionPutsThem) {
  // Half a margin outside an edge the bracket decides; half a margin inside
  // it, with the other edge far away, the chain runs.
  for (int frame_bytes : {1, 18, 36, 133}) {
    SCOPED_TRACE("frame_bytes " + std::to_string(frame_bytes));
    const double margin = 8.0 * frame_bytes * kBracketMarginPerBit;
    for (double clean_db : {-9.99, -6.3, -2.0, 0.7, 3.1}) {
      const Edges e = bracket_edges(clean_db, clean_db, 0.0, frame_bytes);
      if (e.hi + margin < std::log(kFloorMinUniform)) continue;
      // The f = 0 variant: no interference.
      const Reception rx(0.0, false, dbm_to_mw(-clean_db), -clean_db,
                         frame_bytes);
      const auto runs = [&](double u) {
        return rx.success(1.0, 1.0, 0.0, 0.0, 0.0, u).path ==
               Reception::Path::kChain;
      };
      EXPECT_FALSE(runs(std::exp(e.lo - margin / 2))) << clean_db;
      EXPECT_TRUE(runs(std::exp(e.lo + margin / 2))) << clean_db;
      EXPECT_TRUE(runs(std::exp(e.hi - margin / 2))) << clean_db;
      EXPECT_FALSE(runs(std::exp(e.hi + margin / 2))) << clean_db;
    }
  }
}

TEST(Reception, BracketSkipsTheChainOnRandomDraws) {
  // Random listeners over [-12, 9] dB, a third of them jammed under a
  // partial exposure, at every frame length the benches use: each takes
  // the reference chain's decision, at least 99% are decided without the
  // chain, and at least 99% from the approximate SINRs alone. The second
  // set adds fading (sigma 2 dB, the topology default) and coherent
  // combining (gain 0.5 over a total of strongest x U[1, 2)), so that the
  // approximate path's decisions are checked with both on.
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  constexpr int kLanes = 4096;
  struct Set {
    bool fading;
    double coherence_gain;
    std::uint64_t seed;
  };
  for (const Set set : {Set{false, 0.0, 99}, Set{true, 0.5, 100}}) {
    SCOPED_TRACE(set.fading ? "fading, coherence 0.5" : "no fading");
    util::Pcg32 rng(set.seed);
    for (int frame_bytes : {18, 20, 36}) {
      SCOPED_TRACE("frame_bytes " + std::to_string(frame_bytes));
      const Reception rx(set.coherence_gain, set.fading, noise_mw, noise_dbm,
                         frame_bytes);
      int exact_sinr = 0, chain_runs = 0;
      for (int i = 0; i < kLanes; ++i) {
        const double clean_db = -12.0 + 21.0 * rng.uniform();
        const bool jammed = i % 3 == 0;
        const Lane l =
            lane_at(clean_db,
                    jammed ? clean_db - 15.0 * rng.uniform() : clean_db,
                    jammed ? rng.uniform() : 0.0);
        double total = l.strongest_mw, fade = 0.0;
        if (set.fading) {
          total = l.strongest_mw * (1.0 + rng.uniform());
          fade = rng.normal(0.0, 2.0);
        }
        const double u = rng.uniform();
        const Reception::Decision d =
            rx.success(l.strongest_mw, total, fade, l.interf_mw,
                       l.jam_fraction, u);
        const double want = reference_reception(
            l.strongest_mw, total, fade, l.interf_mw, l.jam_fraction,
            set.coherence_gain, set.fading, noise_mw, noise_dbm, frame_bytes);
        ASSERT_EQ(u < d.p_ok, u < want)
            << "lane " << i << " u=" << u << " chain=" << want;
        exact_sinr += d.path != Reception::Path::kApproxSinr;
        chain_runs += d.path == Reception::Path::kChain;
      }
      EXPECT_LE(chain_runs, kLanes / 100);
      EXPECT_LE(exact_sinr, kLanes / 100);
    }
  }
}

TEST(Reception, NanSinrRunsTheChain) {
  // A NaN noise level makes every SINR NaN. No bound holds there, so the
  // chain decides even the smallest frame at the smallest draw.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Reception rx(0.0, false, 1.0, nan, 1);
  const double u = 0x1p-40;
  const Reception::Decision d = lane_success(rx, lane_at(0.0, 0.0, 0.0), u);
  EXPECT_EQ(d.path, Reception::Path::kChain);
  EXPECT_EQ(u < d.p_ok, u < chain(nan, nan, 0.0, 1));
}

TEST(Reception, ZeroSignalSkipsTheExactSinr) {
  // A listener no stored link reaches hears exactly 0 mW: -300 dBm on both
  // paths, with no fade, so its approximate SINRs are exact and settle it,
  // under fading and with or without interference.
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  const Reception rx(0.3, true, noise_mw, noise_dbm, 36);
  const double fade[] = {6.5, -3.0, 1000.0};
  const double interf[] = {0.0, 1e-9, 0.0};
  const double frac[] = {0.0, 0.4, 1.0};
  const double u = 0x1p-53;
  for (std::size_t i = 0; i < 3; ++i) {
    const Reception::Decision d =
        rx.success(0.0, 0.0, fade[i], interf[i], frac[i], u);
    EXPECT_EQ(d.path, Reception::Path::kApproxSinr) << "lane " << i;
    const double want = reference_reception(0.0, 0.0, fade[i], interf[i],
                                            frac[i], 0.3, true, noise_mw,
                                            noise_dbm, 36);
    EXPECT_EQ(u < d.p_ok, u < want) << "lane " << i;
  }
}

// ---------------------------------------------------------------------------
// The approximate SINRs (reception.hpp, DESIGN.md §12): within a thousandth of
// their bound of the exact path's SINRs, as BracketMargin pins the chain's
// drift, and ln u from the same log2 within a thousandth of its own bound.

/// The larger of a lane's two |approximate - exact| SINR gaps.
double approx_sinr_gap(double signal_mw, double fade_db, double interf_mw,
                       bool apply_fading, double noise_mw, double noise_dbm) {
  const ApproxSinr a = approx_sinr(signal_mw, fade_db, interf_mw, apply_fading,
                                   noise_mw, noise_dbm);
  EXPECT_TRUE(a.in_domain) << signal_mw << " " << fade_db << " " << interf_mw;
  const Sinrs e = reference_sinrs(signal_mw, fade_db, interf_mw, apply_fading,
                                  noise_mw, noise_dbm);
  return std::max(std::abs(a.clean_db - e.clean_db),
                  std::abs(a.jam_db - e.jam_db));
}

TEST(ApproxSinr, StaysWithinAThousandthOfItsBound) {
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  double worst = 0.0;
  // A power as the signal, and as the jammed SINR's denominator (1 mW over
  // a noise floor of 0 mW plus the power as interference).
  const auto probe = [&](double mw) {
    if (!(mw >= kApproxMinPowerMw && mw <= kApproxMaxPowerMw)) return;
    worst = std::max(worst, approx_sinr_gap(mw, 0.0, 0.0, false, noise_mw,
                                            noise_dbm));
    worst = std::max(worst,
                     approx_sinr_gap(1.0, 0.0, mw, false, 0.0, noise_dbm));
  };
  // Every cell edge of the log2 table (powers of two included) and the
  // ulps either side, across the guarded domain.
  for (int e = -600; e <= 600; ++e) {
    for (int j = 0; j < 128; ++j) {
      const double edge = std::ldexp(1.0 + j / 128.0, e);
      probe(edge);
      probe(std::nextafter(edge, 0.0));
      probe(std::nextafter(edge, kInf));
    }
  }
  const double sweep = worst;
  // Random lanes: signals log-uniform over 1e-180..1e180 mW, fading on and
  // off with fades over +-40 dB, and interference of none or 1e-6..1e6
  // times the noise floor.
  util::Pcg32 rng(21);
  for (int i = 0; i < 1000000; ++i) {
    const double signal_mw = std::pow(10.0, 360.0 * rng.uniform() - 180.0);
    const double fade_db = 80.0 * rng.uniform() - 40.0;
    const double interf_mw =
        i % 4 == 0 ? 0.0
                   : noise_mw * std::pow(10.0, 12.0 * rng.uniform() - 6.0);
    worst = std::max(worst, approx_sinr_gap(signal_mw, fade_db, interf_mw,
                                            i % 2 == 0, noise_mw, noise_dbm));
  }
  EXPECT_LE(worst, kApproxSinrErrorDb / 1000) << "sweep alone " << sweep;
  // The sweep does meet error: the bound is not covering exact logs.
  EXPECT_GT(sweep, 0.0);
}

TEST(ApproxSinr, LnUniformStaysWithinAThousandthOfItsBound) {
  // Every draw is k * 2^-53: k at every power of two and its neighbours,
  // then a million random draws.
  double worst = 0.0;
  const auto probe = [&](double u) {
    worst = std::max(worst, std::abs(std::numbers::ln2 * approx_log2(u) -
                                     std::log(u)));
  };
  for (int j = 0; j <= 53; ++j) {
    const auto k = static_cast<double>(std::uint64_t{1} << j);
    if (j < 53) probe(std::ldexp(k, -53));
    if (j > 0) probe(std::ldexp(k - 1.0, -53));
    if (j < 53) probe(std::ldexp(k + 1.0, -53));
  }
  util::Pcg32 rng(53);
  for (int i = 0; i < 1000000; ++i) {
    const double u = rng.uniform();
    if (u > 0.0) probe(u);
  }
  EXPECT_LE(worst, kApproxLnUniformError / 1000);
  EXPECT_GT(worst, 0.0);
}

TEST(ApproxSinr, LeavesTheGuardedDomainToTheExactPath) {
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto inside = [&](double signal_mw, double fade_db, double interf_mw,
                          bool fading, double noise_level_dbm) {
    return approx_sinr(signal_mw, fade_db, interf_mw, fading, noise_mw,
                       noise_level_dbm)
        .in_domain;
  };
  EXPECT_TRUE(inside(kApproxMinPowerMw, 0.0, 0.0, false, noise_dbm));
  EXPECT_TRUE(inside(kApproxMaxPowerMw, 0.0, 0.0, false, noise_dbm));
  EXPECT_TRUE(inside(1.0, kApproxMaxFadeDb, 0.0, true, noise_dbm));
  EXPECT_TRUE(inside(1.0, -kApproxMaxFadeDb, 1.0, true, noise_dbm));
  for (double signal_mw :
       {std::nextafter(kApproxMinPowerMw, 0.0),
        std::nextafter(kApproxMaxPowerMw, kInf), 1e-310, -1.0, kInf, nan}) {
    EXPECT_FALSE(inside(signal_mw, 0.0, 0.0, false, noise_dbm)) << signal_mw;
  }
  for (double fade_db :
       {std::nextafter(kApproxMaxFadeDb, kInf), -301.0, kInf, nan}) {
    EXPECT_FALSE(inside(1.0, fade_db, 0.0, true, noise_dbm)) << fade_db;
    EXPECT_TRUE(inside(1.0, fade_db, 0.0, false, noise_dbm)) << fade_db;
  }
  // Denominators: zero, negative, too large, non-finite.
  for (double interf_mw : {-noise_mw, -2.0 * noise_mw, 0x1p601, kInf, nan}) {
    EXPECT_FALSE(inside(1.0, 0.0, interf_mw, false, noise_dbm)) << interf_mw;
  }
  // SINRs too large for one rounding to stay within the bound, or
  // non-finite.
  for (double noise_level_dbm : {-5000.0, 1e300, kInf, nan}) {
    EXPECT_FALSE(inside(1.0, 0.0, 0.0, false, noise_level_dbm))
        << noise_level_dbm;
  }
  // A zero signal reads mw_to_dbm(0) = -300 dBm with no fade, bit for bit
  // the exact path's SINR, whatever the fade.
  for (double fade_db : {0.0, 17.0, 1000.0, 4000.0, nan}) {
    const ApproxSinr a =
        approx_sinr(0.0, fade_db, 0.0, true, noise_mw, noise_dbm);
    EXPECT_TRUE(a.in_domain) << fade_db;
    EXPECT_EQ(a.clean_db,
              reference_sinrs(0.0, fade_db, 0.0, true, noise_mw, noise_dbm)
                  .clean_db)
        << fade_db;
    EXPECT_EQ(a.jam_db, a.clean_db) << fade_db;
  }
}

}  // namespace
}  // namespace dimmer::phy
