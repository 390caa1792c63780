#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "core/scenarios.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {
namespace {

BurstJammer::Config basic_jammer() {
  BurstJammer::Config cfg;
  cfg.burst_us = sim::ms(13);
  cfg.period_us = sim::ms(130);
  cfg.channels = {26};
  return cfg;
}

TEST(BurstJammer, ExactOverlapInsideBurst) {
  BurstJammer j(basic_jammer());
  // Burst occupies [0, 13 ms); a window fully inside reads activity 1.
  EXPECT_DOUBLE_EQ(j.activity(sim::ms(2), sim::ms(5), 26), 1.0);
  // A window fully in the gap reads 0.
  EXPECT_DOUBLE_EQ(j.activity(sim::ms(20), sim::ms(40), 26), 0.0);
}

TEST(BurstJammer, PartialOverlapFraction) {
  BurstJammer j(basic_jammer());
  // [10 ms, 20 ms): 3 ms of the 13 ms burst overlap -> 0.3.
  EXPECT_NEAR(j.activity(sim::ms(10), sim::ms(20), 26), 0.3, 1e-9);
}

TEST(BurstJammer, MultiPeriodWindowAveragesDuty) {
  BurstJammer j(basic_jammer());
  // Over exactly 10 periods the activity equals the duty 13/130.
  EXPECT_NEAR(j.activity(0, sim::ms(1300), 26), 0.1, 1e-9);
}

TEST(BurstJammer, WrongChannelIsSilent) {
  BurstJammer j(basic_jammer());
  EXPECT_DOUBLE_EQ(j.activity(0, sim::ms(5), 15), 0.0);
}

TEST(BurstJammer, PhaseShiftsBursts) {
  auto cfg = basic_jammer();
  cfg.phase_us = sim::ms(50);
  BurstJammer j(cfg);
  EXPECT_DOUBLE_EQ(j.activity(sim::ms(2), sim::ms(5), 26), 0.0);
  EXPECT_DOUBLE_EQ(j.activity(sim::ms(51), sim::ms(55), 26), 1.0);
}

TEST(BurstJammer, ScenarioWindowGates) {
  auto cfg = basic_jammer();
  cfg.start_us = sim::seconds(10);
  cfg.stop_us = sim::seconds(20);
  BurstJammer j(cfg);
  EXPECT_DOUBLE_EQ(j.activity(sim::seconds(5), sim::seconds(5) + sim::ms(5), 26),
                   0.0);
  EXPECT_GT(j.activity(sim::seconds(10), sim::seconds(11), 26), 0.05);
  EXPECT_DOUBLE_EQ(
      j.activity(sim::seconds(25), sim::seconds(25) + sim::ms(5), 26), 0.0);
}

TEST(BurstJammer, JamlabFactoryMatchesPaperParameterisation) {
  // "a 10% interference corresponds to a 13 ms burst every 130 ms".
  auto cfg = BurstJammer::jamlab({0, 0}, 0.10);
  EXPECT_EQ(cfg.burst_us, sim::ms(13));
  EXPECT_EQ(cfg.period_us, sim::ms(130));
  // "a 35% interference ratio represents a 13 ms burst every 37 ms".
  auto cfg35 = BurstJammer::jamlab({0, 0}, 0.35);
  EXPECT_NEAR(static_cast<double>(cfg35.period_us), 37142.0, 10.0);
}

TEST(BurstJammer, RejectsBadConfig) {
  auto cfg = basic_jammer();
  cfg.period_us = sim::ms(5);  // shorter than the burst
  EXPECT_THROW(BurstJammer{cfg}, util::RequireError);
  EXPECT_THROW(BurstJammer::jamlab({0, 0}, 0.0), util::RequireError);
  EXPECT_THROW(BurstJammer::jamlab({0, 0}, 1.2), util::RequireError);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(BurstJammer, RejectsNonFinitePlacement) {
  // A NaN power or position used to slip through and make every sample()
  // read power_mw = NaN.
  for (double bad : {kNaN, kInf, -kInf}) {
    auto cfg = basic_jammer();
    cfg.tx_power_dbm = bad;
    EXPECT_THROW(BurstJammer{cfg}, util::RequireError);
    cfg = basic_jammer();
    cfg.position = {bad, 0.0};
    EXPECT_THROW(BurstJammer{cfg}, util::RequireError);
    cfg = basic_jammer();
    cfg.position = {0.0, bad};
    EXPECT_THROW(BurstJammer{cfg}, util::RequireError);
  }
}

TEST(WifiInterferer, RejectsNonFinitePlacement) {
  for (double bad : {kNaN, kInf}) {
    WifiInterferer::Config cfg;
    cfg.tx_power_dbm = bad;
    EXPECT_THROW(WifiInterferer{cfg}, util::RequireError);
    cfg = WifiInterferer::Config{};
    cfg.position = {bad, 3.0};
    EXPECT_THROW(WifiInterferer{cfg}, util::RequireError);
    cfg = WifiInterferer::Config{};
    cfg.position = {3.0, bad};
    EXPECT_THROW(WifiInterferer{cfg}, util::RequireError);
  }
}

TEST(AmbientInterferer, RejectsBadConfig) {
  auto rejects = [](auto mutate) {
    AmbientInterferer::Config cfg;
    mutate(cfg);
    EXPECT_THROW(AmbientInterferer{cfg}, util::RequireError);
  };
  rejects([](auto& c) { c.tx_power_dbm = kNaN; });
  rejects([](auto& c) { c.position = {kInf, 0.0}; });
  rejects([](auto& c) { c.position = {0.0, kNaN}; });
  // burst_fraction 0 never bursts; above 1 the burst offset goes negative.
  for (double bf : {0.0, -0.1, 1.5, kNaN})
    rejects([bf](auto& c) { c.burst_fraction = bf; });
  // A night duty of 7 read as a burst in every night frame.
  for (double nd : {7.0, 0.51, -0.01, kNaN})
    rejects([nd](auto& c) { c.night_duty = nd; });

  AmbientInterferer::Config edge;
  edge.burst_fraction = 1.0;
  edge.night_duty = 0.5;
  EXPECT_NO_THROW(AmbientInterferer{edge});
}

TEST(WifiInterferer, PureAndDeterministic) {
  WifiInterferer::Config cfg;
  cfg.duty = 0.4;
  cfg.seed = 9;
  WifiInterferer w(cfg);
  double a1 = w.activity(sim::ms(100), sim::ms(120), 25);
  double a2 = w.activity(sim::ms(100), sim::ms(120), 25);
  EXPECT_DOUBLE_EQ(a1, a2);
}

TEST(WifiInterferer, LongRunDutyApproximatesConfig) {
  WifiInterferer::Config cfg;
  cfg.duty = 0.4;
  cfg.wifi_channel = 13;
  WifiInterferer w(cfg);
  double acc = w.activity(0, sim::seconds(60), 26);
  EXPECT_NEAR(acc, 0.4, 0.05);
}

TEST(WifiInterferer, OnlyCoversOwnStripe) {
  WifiInterferer::Config cfg;
  cfg.wifi_channel = 1;  // covers 11..14
  WifiInterferer w(cfg);
  EXPECT_GT(w.activity(0, sim::seconds(10), 12), 0.0);
  EXPECT_DOUBLE_EQ(w.activity(0, sim::seconds(10), 26), 0.0);
}

TEST(AmbientInterferer, DayBusierThanNight) {
  AmbientInterferer::Config cfg;
  cfg.seed = 4;
  AmbientInterferer a(cfg);
  // 12:00 vs 02:00.
  double day = a.activity(sim::hours(12), sim::hours(12) + sim::minutes(30), 20);
  double night = a.activity(sim::hours(2), sim::hours(2) + sim::minutes(30), 20);
  EXPECT_GT(day, night);
  EXPECT_NEAR(day, cfg.day_duty, 0.04);
}

TEST(InterferenceField, EmptyFieldIsSilent) {
  Topology t = make_office18_topology();
  InterferenceField f;
  auto s = f.sample(0, sim::ms(1), 26, 0, t);
  EXPECT_DOUBLE_EQ(s.power_mw, 0.0);
  EXPECT_DOUBLE_EQ(s.exposure, 0.0);
}

TEST(InterferenceField, AccumulatesSources) {
  Topology t = make_office18_topology();
  InterferenceField f;
  auto cfg = basic_jammer();
  cfg.position = t.position(5);
  f.add(std::make_unique<BurstJammer>(cfg));
  auto one = f.sample(0, sim::ms(5), 26, 5, t);
  EXPECT_GT(one.power_mw, 0.0);
  EXPECT_DOUBLE_EQ(one.exposure, 1.0);

  cfg.tag = 2;
  f.add(std::make_unique<BurstJammer>(cfg));
  auto two = f.sample(0, sim::ms(5), 26, 5, t);
  EXPECT_GT(two.power_mw, one.power_mw);
}

TEST(InterferenceField, NearerNodesSeeMorePower) {
  Topology t = make_line_topology(4, 15.0, /*seed=*/3);
  InterferenceField f;
  auto cfg = basic_jammer();
  cfg.position = t.position(0);
  f.add(std::make_unique<BurstJammer>(cfg));
  auto near = f.sample(0, sim::ms(5), 26, 0, t);
  auto far = f.sample(0, sim::ms(5), 26, 3, t);
  EXPECT_GT(near.power_mw, far.power_mw);
}

TEST(InterferenceField, RejectsNullSource) {
  InterferenceField f;
  EXPECT_THROW(f.add(nullptr), util::RequireError);
}

TEST(DCubeProfiles, LevelTwoIsHarsher) {
  Topology t = make_dcube48_topology();
  InterferenceField l1, l2;
  add_dcube_wifi_level(l1, t, 1);
  add_dcube_wifi_level(l2, t, 2);
  EXPECT_GT(l2.size(), l1.size());
  // Aggregate exposure-weighted power over the band at a central node.
  auto total = [&](const InterferenceField& f) {
    double acc = 0.0;
    for (Channel c = kFirstChannel; c <= kLastChannel; ++c) {
      auto s = f.sample(0, sim::seconds(2), c, 20, t);
      acc += s.power_mw * s.exposure;
    }
    return acc;
  };
  EXPECT_GT(total(l2), total(l1));
}

TEST(DCubeProfiles, InvalidLevelThrows) {
  Topology t = make_dcube48_topology();
  InterferenceField f;
  EXPECT_THROW(add_dcube_wifi_level(f, t, 0), util::RequireError);
  EXPECT_THROW(add_dcube_wifi_level(f, t, 3), util::RequireError);
}

// ---- Source contracts (interference.hpp) -----------------------------------

/// How many (window, channel) pairs of a contract sweep missed the source's
/// active_window(), read silent and read active: a sweep tests a contract
/// only if it hits the case the contract is about.
struct ContractCounts {
  int missed = 0;
  int silent = 0;
  int active = 0;
};

/// Checks both source contracts of interference.hpp on 300 seeded random
/// windows of 1 us to 60 ms within 80 ms of one of `anchors` (scenario edges,
/// burst phases, day/night edges), on all 16 channels:
///  1. a window that misses active_window() reads 0.0;
///  2. a window that reads 0.0 reads 0.0 over every sub-window: eight random
///     ones and the step windows of a flood over it (30 B frames, 25 us
///     processing).
ContractCounts expect_source_contracts(const InterferenceSource& src,
                                       std::span<const sim::TimeUs> anchors,
                                       std::uint64_t seed) {
  ContractCounts counts;
  util::Pcg32 rng(seed);
  const TimeWindow window = src.active_window();
  const sim::TimeUs airtime = 1376, step = airtime + 25;
  const int last_anchor = static_cast<int>(anchors.size()) - 1;
  for (int i = 0; i < 300; ++i) {
    const sim::TimeUs anchor = anchors[rng.uniform_int(0, last_anchor)];
    const sim::TimeUs t0 = anchor + rng.uniform_int(-80'000, 80'000);
    const sim::TimeUs t1 = t0 + rng.uniform_int(1, 60'000);
    for (Channel ch = kFirstChannel; ch <= kLastChannel; ++ch) {
      const double act = src.activity(t0, t1, ch);
      if (!window.meets(t0, t1)) {
        ++counts.missed;
        if (act != 0.0) {
          ADD_FAILURE() << "contract 1: [" << t0 << ", " << t1 << ") ch "
                        << int{ch} << " misses the active window but reads "
                        << act;
          return counts;
        }
      }
      if (act > 0.0) {
        ++counts.active;
        continue;
      }
      ++counts.silent;
      std::vector<std::pair<sim::TimeUs, sim::TimeUs>> subs;
      for (int k = 0; k < 8; ++k) {
        const sim::TimeUs a =
            t0 + rng.uniform_int(0, static_cast<int>(t1 - t0 - 1));
        subs.emplace_back(a, a + rng.uniform_int(1, static_cast<int>(t1 - a)));
      }
      for (sim::TimeUs a = t0; a + airtime <= t1; a += step)
        subs.emplace_back(a, a + airtime);
      for (const auto& [a, b] : subs) {
        if (src.activity(a, b, ch) != 0.0) {
          ADD_FAILURE() << "contract 2: [" << t0 << ", " << t1 << ") ch "
                        << int{ch} << " is silent but its sub-window [" << a
                        << ", " << b << ") reads " << src.activity(a, b, ch);
          return counts;
        }
      }
    }
  }
  return counts;
}

TEST(SourceContracts, BurstJammerWindowedAndOpenEnded) {
  auto cfg = basic_jammer();
  cfg.channels = {15, 26};
  cfg.period_us = sim::ms(37);
  cfg.phase_us = sim::ms(5);
  cfg.start_us = sim::seconds(10) + 123;
  cfg.stop_us = sim::seconds(20) - 77;
  const BurstJammer windowed(cfg);
  EXPECT_EQ(windowed.active_window().start_us, cfg.start_us);
  EXPECT_EQ(windowed.active_window().stop_us, cfg.stop_us);
  // Both scenario edges, and burst edges inside and near them.
  const sim::TimeUs edges[] = {cfg.start_us,         cfg.stop_us,
                               sim::seconds(15),     sim::ms(15'005),
                               sim::ms(15'005 + 13), sim::seconds(10) - sim::ms(60)};
  ContractCounts c = expect_source_contracts(windowed, edges, 1);
  EXPECT_GT(c.missed, 0);
  EXPECT_GT(c.silent, 0);
  EXPECT_GT(c.active, 0);

  cfg.stop_us = -1;  // never stops: the window is open-ended
  const BurstJammer open(cfg);
  EXPECT_EQ(open.active_window().start_us, cfg.start_us);
  EXPECT_EQ(open.active_window().stop_us,
            std::numeric_limits<sim::TimeUs>::max());
  c = expect_source_contracts(open, edges, 2);
  EXPECT_GT(c.missed, 0);
  EXPECT_GT(c.silent, 0);
  EXPECT_GT(c.active, 0);
}

TEST(SourceContracts, WifiInterfererWindowedAndOpen) {
  WifiInterferer::Config cfg;
  cfg.wifi_channel = 8;  // 802.15.4 channels 16-19; the rest read 0.0
  cfg.duty = 0.35;
  cfg.start_us = sim::seconds(3) + 41;
  cfg.stop_us = sim::seconds(9) + 7'001;
  const WifiInterferer windowed(cfg);
  EXPECT_EQ(windowed.active_window().start_us, cfg.start_us);
  EXPECT_EQ(windowed.active_window().stop_us, cfg.stop_us);
  const sim::TimeUs edges[] = {cfg.start_us, cfg.stop_us, sim::seconds(6),
                               sim::seconds(6) + sim::ms(40)};
  ContractCounts c = expect_source_contracts(windowed, edges, 3);
  EXPECT_GT(c.missed, 0);
  EXPECT_GT(c.silent, 0);
  EXPECT_GT(c.active, 0);

  cfg.start_us = 0;
  cfg.stop_us = -1;
  const WifiInterferer open(cfg);
  EXPECT_EQ(open.active_window().stop_us,
            std::numeric_limits<sim::TimeUs>::max());
  c = expect_source_contracts(open, edges, 4);
  EXPECT_GT(c.silent, 0);
  EXPECT_GT(c.active, 0);
}

TEST(SourceContracts, AmbientAcrossTheDayNightEdges) {
  AmbientInterferer::Config cfg;
  cfg.seed = 21;
  const AmbientInterferer ambient(cfg);
  // No scenario window: the whole timeline.
  EXPECT_EQ(ambient.active_window().start_us,
            std::numeric_limits<sim::TimeUs>::min());
  EXPECT_EQ(ambient.active_window().stop_us,
            std::numeric_limits<sim::TimeUs>::max());
  // The 08:00 and 19:00 edges on two days, work hours and night.
  const sim::TimeUs edges[] = {sim::hours(8),  sim::hours(19),
                               sim::hours(32), sim::hours(43),
                               sim::hours(12), sim::hours(2)};
  const ContractCounts c = expect_source_contracts(ambient, edges, 5);
  EXPECT_EQ(c.missed, 0);
  EXPECT_GT(c.silent, 0);
  EXPECT_GT(c.active, 0);
}

// ---- BoundInterference -----------------------------------------------------

/// What a binding sweep saw: (step, channel) pairs with and without an
/// active source, and the sources select() dropped from a slot because
/// their window missed it or because they were silent over it. A sweep is
/// only a test of the binding if it hits each case it claims.
struct SweepCounts {
  int active = 0;
  int silent = 0;
  int window_pruned = 0;
  int silent_pruned = 0;
};

/// Asserts, for a flood slot of 14 steps (30 B frames, 25 us processing:
/// 19.6 ms) at each of `slot_starts` on channels 11-26, that select()
/// keeps exactly the sources whose window meets the slot and whose
/// activity over it is above 0, in ascending order, and that scan() over
/// that selection plus power_mw() equal sample() bit for bit at every node
/// and every step.
SweepCounts expect_slots_match_sample(const InterferenceField& field,
                                      const Topology& topo,
                                      std::span<const sim::TimeUs> slot_starts) {
  SweepCounts counts;
  const BoundInterference bound(field, topo);
  EXPECT_EQ(bound.source_count(), field.size());
  std::vector<std::size_t> selected(field.size()), active(field.size());
  const sim::TimeUs airtime = 1376, step = airtime + 25;
  const int steps = 14;
  for (sim::TimeUs slot : slot_starts) {
    const sim::TimeUs slot_end = slot + steps * step;
    for (Channel ch = kFirstChannel; ch <= kLastChannel; ++ch) {
      const std::size_t n =
          bound.select(slot, slot_end, ch, std::span(selected));
      std::vector<std::size_t> want_selected;
      for (std::size_t s = 0; s < field.size(); ++s) {
        const InterferenceSource& src = field.source(s);
        if (!src.active_window().meets(slot, slot_end))
          ++counts.window_pruned;
        else if (src.activity(slot, slot_end, ch) <= 0.0)
          ++counts.silent_pruned;
        else
          want_selected.push_back(s);
      }
      if (std::vector(selected.begin(), selected.begin() + n) !=
          want_selected) {
        ADD_FAILURE() << "slot " << slot << " ch " << int{ch} << ": selected "
                      << n << " sources, want " << want_selected.size();
        return counts;
      }
      for (int t = 0; t < steps; ++t) {
        const sim::TimeUs t0 = slot + t * step;
        double exposure = -1.0;
        const std::size_t k =
            bound.scan(t0, t0 + airtime, ch, std::span(selected).first(n),
                       std::span(active), exposure);
        (k > 0 ? counts.active : counts.silent) += 1;
        for (NodeId rx = 0; rx < topo.size(); ++rx) {
          const InterferenceSample want =
              field.sample(t0, t0 + airtime, ch, rx, topo);
          const double got = bound.power_mw(rx, std::span(active).first(k));
          if (got != want.power_mw || exposure != want.exposure) {
            ADD_FAILURE() << "t0 " << t0 << " ch " << int{ch} << " rx " << rx
                          << ": power " << got << " vs " << want.power_mw
                          << ", exposure " << exposure << " vs "
                          << want.exposure;
            return counts;
          }
        }
      }
    }
  }
  return counts;
}

/// expect_slots_match_sample over 64 slots at a sub-frame stride from
/// `origin` and 64 spread across [origin, origin + horizon).
SweepCounts expect_binding_matches_sample(const InterferenceField& field,
                                          const Topology& topo,
                                          sim::TimeUs origin,
                                          sim::TimeUs horizon) {
  std::vector<sim::TimeUs> starts;
  for (int k = 0; k < 64; ++k) starts.push_back(origin + k * 3301);
  for (int k = 0; k < 64; ++k) starts.push_back(origin + k * (horizon / 64) + 997);
  return expect_slots_match_sample(field, topo, starts);
}

TEST(BoundInterference, MatchesSampleForBurstJammers) {
  Topology t = make_office18_topology();
  InterferenceField f;
  auto cfg = basic_jammer();
  cfg.position = t.position(5);
  f.add(std::make_unique<BurstJammer>(cfg));
  auto windowed = BurstJammer::jamlab(t.position(12), 0.35, 15, 9);
  windowed.start_us = sim::ms(40);
  windowed.stop_us = sim::seconds(2);
  windowed.channels = {15, 26};
  f.add(std::make_unique<BurstJammer>(windowed));
  SweepCounts c = expect_binding_matches_sample(f, t, 0, sim::seconds(4));
  EXPECT_GT(c.active, 0);
  EXPECT_GT(c.silent, 0);
}

TEST(BoundInterference, MatchesSampleForScenarioJammers) {
  Topology t = make_office18_topology();
  const sim::TimeUs origin = sim::hours(10);
  InterferenceField stat, dyn, train;
  core::add_static_jamming(stat, t, 0.3);
  core::add_dynamic_jamming(dyn, t, kControlChannel, origin);
  core::add_training_schedule(train, t, sim::hours(1), 5);
  for (const auto& [name, field, from] :
       {std::tuple{"static", &stat, origin}, std::tuple{"dynamic", &dyn, origin},
        std::tuple{"training", &train, sim::TimeUs{0}}}) {
    SCOPED_TRACE(name);
    SweepCounts c = expect_binding_matches_sample(*field, t, from,
                                                  sim::minutes(27));
    EXPECT_GT(c.active, 0);
    EXPECT_GT(c.silent, 0);
  }
}

TEST(BoundInterference, MatchesSampleForOfficeAmbient) {
  Topology t = make_office18_topology();
  InterferenceField f;
  core::add_office_ambient(f, t);
  // Work hours: the ambient sources burst on every channel.
  SweepCounts c =
      expect_binding_matches_sample(f, t, sim::hours(12), sim::hours(1));
  EXPECT_GT(c.active, 0);
  EXPECT_GT(c.silent, 0);
}

TEST(BoundInterference, MatchesSampleForDcubeWifiLevels) {
  Topology t = make_dcube48_topology();
  for (int level : {1, 2}) {
    SCOPED_TRACE("level " + std::to_string(level));
    InterferenceField f;
    add_dcube_wifi_level(f, t, level);
    SweepCounts c = expect_binding_matches_sample(f, t, 0, sim::seconds(30));
    EXPECT_GT(c.active, 0);
    EXPECT_GT(c.silent, 0);
  }
}

TEST(BoundInterference, MatchesSampleOnRestrictedTopology) {
  // The APs of the whole deployment over a cell whose local ids are not
  // its parent ids: the table must key shadowing on the parent id.
  Topology parent = make_dcube48_topology();
  std::vector<NodeId> members;
  for (NodeId i = 3; i < parent.size(); i += 3) members.push_back(i);
  Topology cell = parent.restricted(members);
  InterferenceField f;
  add_dcube_wifi_level(f, parent, 2);
  SweepCounts c = expect_binding_matches_sample(f, cell, 0, sim::seconds(30));
  EXPECT_GT(c.active, 0);
}

TEST(BoundInterference, MatchesSampleOnTheTrainingField) {
  // Trace collection's field: a ten-hour training schedule of which a
  // collection at 9-11 h sees a handful of sources in any slot.
  Topology t = make_office18_topology();
  InterferenceField f;
  core::add_training_schedule(f, t, sim::hours(10), 0x5C4EDULL);
  ASSERT_GE(f.size(), 150u);
  SweepCounts c = expect_binding_matches_sample(f, t, sim::hours(9) +
                                                          sim::minutes(30),
                                                sim::minutes(20));
  EXPECT_GT(c.active, 0);
  EXPECT_GT(c.silent, 0);
  EXPECT_GT(c.window_pruned, 0);
  EXPECT_GT(c.silent_pruned, 0);
}

TEST(BoundInterference, MatchesSampleAcrossDynamicJammingEdges) {
  // Slots that end before, straddle and start at each phase edge of the
  // dynamic timeline (7, 12, 17 and 22 min): at 7 and 12 min a burst is
  // in progress at the edge, so the scenario window cuts it.
  Topology t = make_office18_topology();
  const sim::TimeUs origin = sim::hours(10);
  InterferenceField f;
  core::add_dynamic_jamming(f, t, kControlChannel, origin);
  const sim::TimeUs slot_len = 14 * 1401;
  std::vector<sim::TimeUs> starts;
  for (int minute : {7, 12, 17, 22}) {
    const sim::TimeUs edge = origin + sim::minutes(minute);
    for (sim::TimeUs offset :
         {-3 * slot_len, -slot_len, -slot_len + 614, sim::TimeUs{-12'345},
          sim::TimeUs{-5'000}, sim::TimeUs{-156}, sim::TimeUs{0},
          sim::TimeUs{3'000}})
      starts.push_back(edge + offset);
  }
  SweepCounts c = expect_slots_match_sample(f, t, starts);
  EXPECT_GT(c.active, 0);
  EXPECT_GT(c.silent, 0);
  EXPECT_GT(c.window_pruned, 0);
  EXPECT_GT(c.silent_pruned, 0);
  // The slot starting 5 ms before the 7 min edge is silent at its first
  // step and jammed at its fifth, the first after the edge.
  const sim::TimeUs slot = origin + sim::minutes(7) - 5'000;
  EXPECT_EQ(f.sample(slot, slot + 1376, kControlChannel, 0, t).exposure, 0.0);
  EXPECT_GT(f.sample(slot + 4 * 1401, slot + 4 * 1401 + 1376, kControlChannel,
                     0, t)
                .exposure,
            0.0);
}

TEST(BoundInterference, EmptyFieldIsSilent) {
  Topology t = make_office18_topology();
  InterferenceField f;
  BoundInterference bound(f, t);
  EXPECT_EQ(bound.source_count(), 0u);
  double exposure = -1.0;
  EXPECT_EQ(bound.select(0, sim::ms(1), 26, {}), 0u);
  EXPECT_EQ(bound.scan(0, sim::ms(1), 26, {}, {}, exposure), 0u);
  EXPECT_EQ(exposure, 0.0);
  EXPECT_EQ(bound.power_mw(7, {}), 0.0);
  expect_binding_matches_sample(f, t, 0, sim::seconds(1));
}

TEST(BoundInterference, RequireUnchangedTracksTheSourceCount) {
  Topology t = make_office18_topology();
  InterferenceField f;
  core::add_static_jamming(f, t, 0.3);
  BoundInterference bound(f, t);
  EXPECT_NO_THROW(bound.require_unchanged());
  f.add(std::make_unique<BurstJammer>(basic_jammer()));
  EXPECT_THROW(bound.require_unchanged(), util::RequireError);
  f.clear();
  EXPECT_THROW(bound.require_unchanged(), util::RequireError);
}

TEST(BoundInterference, SourceAddedAfterEngineBindsFailsTheNextFlood) {
  // Regression: an engine built over a field that later gains a source must
  // refuse to flood on its stale table instead of ignoring the new source.
  Topology t = make_office18_topology();
  InterferenceField f;
  core::add_static_jamming(f, t, 0.3);
  flood::GlossyFlood engine(t, f);
  const std::vector<flood::NodeFloodConfig> cfgs(18);
  flood::FloodWorkspace ws;
  flood::FloodResult result;
  util::Pcg32 rng(1);
  engine.run_into(0, cfgs, flood::FloodParams{}, rng, ws, result);

  auto cfg = basic_jammer();
  cfg.position = t.position(9);
  f.add(std::make_unique<BurstJammer>(cfg));
  EXPECT_THROW(engine.run_into(0, cfgs, flood::FloodParams{}, rng, ws, result),
               util::RequireError);
}

}  // namespace
}  // namespace dimmer::phy
