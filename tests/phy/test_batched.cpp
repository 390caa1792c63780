#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "phy/batched.hpp"
#include "phy/per.hpp"
#include "phy/propagation.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {
namespace {

// ---------------------------------------------------------------------------
// reception_success_batch: the full step-3b chain against a literal
// transcription of the historical per-listener expressions.

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

TEST(ReceptionBatch, MatchesReferenceChain) {
  const double noise_mw = dbm_to_mw(-87.0);
  const double noise_dbm = mw_to_dbm(noise_mw);
  for (bool fading : {false, true}) {
    SCOPED_TRACE(fading ? "fading on" : "fading off");
    const int n = 26;
    ReceptionBatch b;
    b.resize(n);
    b.count = n;
    util::Pcg32 rng(1234);
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      b.strongest_mw[u] = dbm_to_mw(-90.0 + 30.0 * rng.uniform());
      b.total_mw[u] = b.strongest_mw[u] * (1.0 + rng.uniform());
      b.fade_db[u] = rng.normal(0.0, 3.0);
      // Mix zero- and nonzero-interference listeners.
      b.interf_mw[u] = (i % 3 == 0) ? 0.0 : dbm_to_mw(-95.0);
      b.jam_fraction[u] = (i % 3 == 0) ? 0.0 : rng.uniform();
    }
    reception_success_batch(b, 0.2, fading, noise_mw, noise_dbm, 36);
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const double want = reference_reception(
          b.strongest_mw[u], b.total_mw[u], b.fade_db[u], b.interf_mw[u],
          b.jam_fraction[u], 0.2, fading, noise_mw, noise_dbm, 36);
      // Draws of 0.0 run every unsaturated lane through the chain, so
      // p_ok is the probability itself.
      EXPECT_EQ(b.p_ok[u], want);
      EXPECT_GE(b.p_ok[u], 0.0);
      EXPECT_LE(b.p_ok[u], 1.0);
    }
  }
}

TEST(ReceptionBatch, CountPrefixIsPositionIndependent) {
  const double noise_mw = dbm_to_mw(-87.0);
  const double noise_dbm = mw_to_dbm(noise_mw);
  const int n = 17;
  ReceptionBatch full;
  full.resize(n);
  full.count = n;
  util::Pcg32 rng(77);
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    full.strongest_mw[u] = dbm_to_mw(-80.0 + 2.0 * i);
    full.total_mw[u] = full.strongest_mw[u] * 1.5;
    full.fade_db[u] = rng.normal(0.0, 2.0);
    full.interf_mw[u] = (i % 2 == 0) ? 0.0 : 1e-9;
    full.jam_fraction[u] = (i % 2 == 0) ? 0.0 : 0.4;
  }
  reception_success_batch(full, 0.3, true, noise_mw, noise_dbm, 24);
  // Each listener alone in a batch of one must reproduce its batched result
  // bit-for-bit: a lane's decision depends on its own inputs only.
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    ReceptionBatch one;
    one.resize(1);
    one.count = 1;
    one.strongest_mw[0] = full.strongest_mw[u];
    one.total_mw[0] = full.total_mw[u];
    one.fade_db[0] = full.fade_db[u];
    one.interf_mw[0] = full.interf_mw[u];
    one.jam_fraction[0] = full.jam_fraction[u];
    reception_success_batch(one, 0.3, true, noise_mw, noise_dbm, 24);
    EXPECT_EQ(one.p_ok[0], full.p_ok[u]) << "listener " << i;
  }
}

TEST(ReceptionBatch, ResizeSizesAllArrays) {
  ReceptionBatch b;
  b.resize(13);
  EXPECT_EQ(b.strongest_mw.size(), 13u);
  EXPECT_EQ(b.total_mw.size(), 13u);
  EXPECT_EQ(b.fade_db.size(), 13u);
  EXPECT_EQ(b.interf_mw.size(), 13u);
  EXPECT_EQ(b.jam_fraction.size(), 13u);
  EXPECT_EQ(b.uniform.size(), 13u);
  EXPECT_EQ(b.p_ok.size(), 13u);
}

// ---------------------------------------------------------------------------
// Settled receptions (DESIGN.md §12): lanes decided from their SINRs before
// the BER chain must take the decision the full chain takes.

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

void load_lanes(ReceptionBatch& b, const std::vector<Lane>& lanes) {
  b.resize(static_cast<int>(lanes.size()));
  b.count = static_cast<int>(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    b.strongest_mw[i] = lanes[i].strongest_mw;
    b.total_mw[i] = lanes[i].strongest_mw;
    b.fade_db[i] = 0.0;
    b.interf_mw[i] = lanes[i].interf_mw;
    b.jam_fraction[i] = lanes[i].jam_fraction;
  }
}

TEST(ReceptionBatch, SettledLanesTakeTheFullChainDecision) {
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  const std::vector<Lane> lanes = settled_mix();
  util::Pcg32 rng(2024);
  for (int frame_bytes : {14, 15}) {
    SCOPED_TRACE("frame_bytes " + std::to_string(frame_bytes));
    std::vector<double> want(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const Lane& l = lanes[i];
      want[i] = reference_reception(l.strongest_mw, l.strongest_mw, 0.0,
                                    l.interf_mw, l.jam_fraction, 0.0, false,
                                    noise_mw, noise_dbm, frame_bytes);
    }
    // How many lanes ran the chain, read off the returned count: at draws
    // of 0.0 every lane but the saturated ones; at 0.5, none, since no
    // lane's p_ok lies near 0.5.
    ReceptionBatch probe;
    load_lanes(probe, lanes);
    EXPECT_EQ(reception_success_batch(probe, 0.0, false, noise_mw, noise_dbm,
                                      frame_bytes)
                  .chain,
              static_cast<int>(lanes.size()) - kSaturatedLanes);
    for (double& u : probe.uniform) u = 0.5;
    EXPECT_EQ(reception_success_batch(probe, 0.0, false, noise_mw, noise_dbm,
                                      frame_bytes)
                  .chain,
              0);
    // Each lane's decision at draws around its exact p_ok, among random
    // neighbours.
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      for (double u : {0.0, 0x1p-53, std::nextafter(want[i], 0.0), want[i],
                       rng.uniform()}) {
        ReceptionBatch b;
        load_lanes(b, lanes);
        for (double& v : b.uniform) v = rng.uniform();
        b.uniform[i] = u;
        reception_success_batch(b, 0.0, false, noise_mw, noise_dbm,
                                frame_bytes);
        EXPECT_EQ(b.uniform[i] < b.p_ok[i], u < want[i])
            << "lane " << i << " u=" << u << " want=" << want[i];
      }
    }
  }
}

TEST(ReceptionBatch, SettledLanesArePositionIndependent) {
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  // Three copies of the mix, so each lane class sits at several offsets,
  // among different neighbours.
  std::vector<Lane> lanes;
  for (int rep = 0; rep < 3; ++rep)
    for (const Lane& l : settled_mix()) lanes.push_back(l);
  ReceptionBatch full;
  load_lanes(full, lanes);
  util::Pcg32 rng(31);
  for (double& u : full.uniform) u = rng.uniform();
  reception_success_batch(full, 0.0, false, noise_mw, noise_dbm, 15);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    // Alone, and at the end of every strict prefix of the batch; -1.0
    // marks an output the call did not write.
    ReceptionBatch one;
    load_lanes(one, {lanes[i]});
    one.uniform[0] = full.uniform[i];
    one.p_ok[0] = -1.0;
    reception_success_batch(one, 0.0, false, noise_mw, noise_dbm, 15);
    EXPECT_EQ(one.p_ok[0], full.p_ok[i]) << "lane " << i;
    ReceptionBatch prefix = full;
    prefix.count = static_cast<int>(i) + 1;
    std::fill(prefix.p_ok.begin(), prefix.p_ok.end(), -1.0);
    reception_success_batch(prefix, 0.0, false, noise_mw, noise_dbm, 15);
    EXPECT_EQ(prefix.p_ok[i], full.p_ok[i]) << "prefix through lane " << i;
  }
}

TEST(ReceptionBatch, RejectsNonPositiveFrameEvenWhenEveryLaneSettles) {
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  ReceptionBatch b;
  load_lanes(b, {lane_at(25.0, 25.0, 0.0), lane_at(-30.0, -30.0, 0.0)});
  b.uniform[0] = 0.5;
  b.uniform[1] = 0.5;
  for (int frame_bytes : {0, -24}) {
    EXPECT_THROW(reception_success_batch(b, 0.0, false, noise_mw, noise_dbm,
                                         frame_bytes),
                 util::RequireError);
  }
}

// ---------------------------------------------------------------------------
// The bracket (batched.hpp, DESIGN.md §12): a lane decided from bounds on
// ln p_ok takes the decision of the chain on its exact SINRs.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The chain on one lane.
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

/// One listener at clean SINR `clean_db`, under a batch whose signal is
/// 1 mW (0 dBm exactly) and whose noise is `-clean_db` dBm: `jam_gap_db`
/// below that sets the interference power, and 0 means none, so the
/// jammed SINR equals the clean one.
struct Variant {
  double jam_fraction, jam_gap_db;
};

/// Single-SINR lanes (exposure 0, exposure 1, and equal SINRs under a
/// partial exposure), then mixed ones.
constexpr Variant kVariants[] = {{0.0, 0.0},  {1.0, 0.0},  {0.37, 0.0},
                                 {0.3, 3.0},  {0.6, 12.0}, {1.0, 2.0},
                                 {0.05, 25.0}};
constexpr int kNumVariants = static_cast<int>(std::size(kVariants));

void load_variants(ReceptionBatch& b, double clean_db, int copies) {
  b.resize(kNumVariants * copies);
  b.count = kNumVariants * copies;
  const double noise_mw = dbm_to_mw(-clean_db);
  for (int v = 0; v < kNumVariants; ++v) {
    for (int c = 0; c < copies; ++c) {
      const auto i = static_cast<std::size_t>(v * copies + c);
      b.strongest_mw[i] = 1.0;
      b.total_mw[i] = 1.0;
      b.fade_db[i] = 0.0;
      b.interf_mw[i] =
          kVariants[v].jam_gap_db > 0.0
              ? dbm_to_mw(kVariants[v].jam_gap_db - clean_db) - noise_mw
              : 0.0;
      b.jam_fraction[i] = kVariants[v].jam_fraction;
    }
  }
}

TEST(ReceptionBatch, BracketTakesTheChainDecision) {
  // Draws per lane: both bracket edges and their neighbours, half a margin
  // either side of each edge, the exact p_ok and its neighbours, +-1e-9
  // relative, and two random draws.
  constexpr int kDraws = 17;
  util::Pcg32 rng(4096);
  long checked = 0;
  for (int frame_bytes : {1, 14, 15, 18, 20, 36, 133}) {
    SCOPED_TRACE("frame_bytes " + std::to_string(frame_bytes));
    const double margin = 8.0 * frame_bytes * kBracketMarginPerBit;
    for (double clean_db : bracket_sinrs()) {
      const double noise_mw = dbm_to_mw(-clean_db);
      ReceptionBatch b;
      load_variants(b, clean_db, kDraws);
      // Each variant's exact SINRs, from the transcription.
      std::vector<double> want(kNumVariants), jam(kNumVariants);
      for (int v = 0; v < kNumVariants; ++v) {
        const auto i = static_cast<std::size_t>(v * kDraws);
        const Sinrs exact = reference_sinrs(b.strongest_mw[i], b.fade_db[i],
                                            b.interf_mw[i], false, noise_mw,
                                            -clean_db);
        ASSERT_EQ(exact.clean_db, clean_db);
        const double jam_db = exact.jam_db;
        jam[static_cast<std::size_t>(v)] = jam_db;
        const double f = b.jam_fraction[i];
        want[static_cast<std::size_t>(v)] =
            chain(clean_db, jam_db, f, frame_bytes);
        const Edges e = bracket_edges(clean_db, jam_db, f, frame_bytes);
        const double p = want[static_cast<std::size_t>(v)];
        const double draws[kDraws] = {
            std::exp(e.lo), std::nextafter(std::exp(e.lo), 0.0),
            std::nextafter(std::exp(e.lo), 1.0), std::exp(e.hi),
            std::nextafter(std::exp(e.hi), 0.0),
            std::nextafter(std::exp(e.hi), 1.0), std::exp(e.lo - margin / 2),
            std::exp(e.lo + margin / 2), std::exp(e.hi - margin / 2),
            std::exp(e.hi + margin / 2), std::nextafter(p, 0.0), p,
            std::nextafter(p, 1.0), p * (1.0 - 1e-9), p * (1.0 + 1e-9),
            rng.uniform(), rng.uniform()};
        for (int d = 0; d < kDraws; ++d)
          b.uniform[i + static_cast<std::size_t>(d)] = draws[d];
      }
      reception_success_batch(b, 0.0, false, noise_mw, -clean_db,
                              frame_bytes);
      for (int l = 0; l < b.count; ++l) {
        const auto i = static_cast<std::size_t>(l);
        const double u = b.uniform[i];
        const double f = b.jam_fraction[i];
        const double jam_db = jam[i / kDraws];
        const bool saturated =
            (f >= 1.0 || clean_db >= kSaturatedSinrDb) &&
            (f <= 0.0 || jam_db >= kSaturatedSinrDb);
        // Draws outside [0, 1) never come from Pcg32::uniform(); saturated
        // lanes are the saturation rule's, pinned above.
        if (!(u >= 0.0 && u < 1.0) || saturated) continue;
        const double p = want[i / kDraws];
        ASSERT_EQ(u < b.p_ok[i], u < p)
            << "clean=" << clean_db << " jam=" << jam_db << " f=" << f
            << " u=" << u << " chain=" << p;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 3000000);
}

TEST(ReceptionBatch, BracketEdgesSitWhereTheTranscriptionPutsThem) {
  // Half a margin outside an edge the bracket decides; half a margin inside
  // it, with the other edge far away, the chain runs.
  for (int frame_bytes : {1, 18, 36, 133}) {
    SCOPED_TRACE("frame_bytes " + std::to_string(frame_bytes));
    const double margin = 8.0 * frame_bytes * kBracketMarginPerBit;
    for (double clean_db : {-9.99, -6.3, -2.0, 0.7, 3.1}) {
      const Edges e = bracket_edges(clean_db, clean_db, 0.0, frame_bytes);
      if (e.hi + margin < std::log(kFloorMinUniform)) continue;
      ReceptionBatch b;
      load_variants(b, clean_db, 1);
      b.count = 1;  // the f = 0 lane only
      const auto runs = [&](double u) {
        b.uniform[0] = u;
        return reception_success_batch(b, 0.0, false, dbm_to_mw(-clean_db),
                                       -clean_db, frame_bytes)
            .chain;
      };
      EXPECT_EQ(runs(std::exp(e.lo - margin / 2)), 0) << clean_db;
      EXPECT_EQ(runs(std::exp(e.lo + margin / 2)), 1) << clean_db;
      EXPECT_EQ(runs(std::exp(e.hi - margin / 2)), 1) << clean_db;
      EXPECT_EQ(runs(std::exp(e.hi + margin / 2)), 0) << clean_db;
    }
  }
}

TEST(ReceptionBatch, BracketSkipsTheChainOnRandomDraws) {
  // Random listeners over [-12, 9] dB, a third of them jammed under a
  // partial exposure, at every frame length the benches use: at least 99%
  // of the lanes are decided without the chain, and at least 99% from the
  // approximate SINRs alone.
  util::Pcg32 rng(99);
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  constexpr int kLanes = 4096;
  for (int frame_bytes : {18, 20, 36}) {
    ReceptionBatch b;
    b.resize(kLanes);
    b.count = kLanes;
    for (int i = 0; i < kLanes; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const double clean_db = -12.0 + 21.0 * rng.uniform();
      const bool jammed = i % 3 == 0;
      const Lane l = lane_at(clean_db, jammed ? clean_db - 15.0 * rng.uniform()
                                              : clean_db,
                             jammed ? rng.uniform() : 0.0);
      b.strongest_mw[u] = l.strongest_mw;
      b.total_mw[u] = l.strongest_mw;
      b.fade_db[u] = 0.0;
      b.interf_mw[u] = l.interf_mw;
      b.jam_fraction[u] = l.jam_fraction;
      b.uniform[u] = rng.uniform();
    }
    const ReceptionCounts ran = reception_success_batch(
        b, 0.0, false, noise_mw, noise_dbm, frame_bytes);
    EXPECT_LE(ran.chain, kLanes / 100) << "frame_bytes " << frame_bytes;
    EXPECT_LE(ran.exact_sinr, kLanes / 100) << "frame_bytes " << frame_bytes;
  }
}

TEST(ReceptionBatch, NanSinrRunsTheChain) {
  // A NaN noise level makes every SINR NaN. No bound holds there, so the
  // chain decides even the smallest frame at the smallest draw.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ReceptionBatch b;
  load_lanes(b, {lane_at(0.0, 0.0, 0.0)});
  b.uniform[0] = 0x1p-40;
  const ReceptionCounts ran =
      reception_success_batch(b, 0.0, false, 1.0, nan, 1);
  EXPECT_EQ(ran.exact_sinr, 1);
  EXPECT_EQ(ran.chain, 1);
  EXPECT_EQ(b.uniform[0] < b.p_ok[0], b.uniform[0] < chain(nan, nan, 0.0, 1));
}

TEST(ReceptionBatch, ZeroSignalSkipsTheExactSinr) {
  // A listener no stored link reaches hears exactly 0 mW: -300 dBm on both
  // paths, with no fade, so its approximate SINRs are exact and settle it,
  // under fading and with or without interference.
  const double noise_mw = dbm_to_mw(kNoiseDbm);
  const double noise_dbm = mw_to_dbm(noise_mw);
  ReceptionBatch b;
  b.resize(3);
  b.count = 3;
  const double fade[] = {6.5, -3.0, 1000.0};
  const double interf[] = {0.0, 1e-9, 0.0};
  const double frac[] = {0.0, 0.4, 1.0};
  for (std::size_t i = 0; i < 3; ++i) {
    b.strongest_mw[i] = 0.0;
    b.total_mw[i] = 0.0;
    b.fade_db[i] = fade[i];
    b.interf_mw[i] = interf[i];
    b.jam_fraction[i] = frac[i];
    b.uniform[i] = 0x1p-53;
  }
  const ReceptionCounts ran =
      reception_success_batch(b, 0.3, true, noise_mw, noise_dbm, 36);
  EXPECT_EQ(ran.exact_sinr, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    const double want = reference_reception(0.0, 0.0, fade[i], interf[i],
                                            frac[i], 0.3, true, noise_mw,
                                            noise_dbm, 36);
    EXPECT_EQ(b.uniform[i] < b.p_ok[i], b.uniform[i] < want) << "lane " << i;
  }
}

// ---------------------------------------------------------------------------
// The approximate SINRs (batched.hpp, DESIGN.md §12): within a thousandth of
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
