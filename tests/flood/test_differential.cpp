// Differential bit-identity suite for the hot-path refactor (DESIGN.md §10,
// §13).
//
// Every case runs the frozen pre-refactor loop (reference_glossy.cpp) and
// the shipped engine from identical RNG states and asserts that (a) every
// FloodResult field is exactly equal — including floating-point-derived
// radio timings — and (b) the two RNG streams end in the same state, so a
// longer simulation embedding the flood would stay bit-identical too.
//
// Each input runs through two engines with different row bitmaps: the
// owning engine (full rows on a dense topology; partial rows on the
// construction-culled campuses, so the draws for unreachable listeners) and
// one over DiagonalFreeLinkModel, whose rows are n-1 long, so no row of any
// input is full there. The 130-node campuses take three bitmap words per
// row, the last one partial, so a word boundary or a partial last word that
// the step loop mishandles shows in their results.
//
// The SparseDifferential cases compare those two engines directly, full rows
// against diagonal-free rows, from identical RNG states: the bitmaps must be
// invisible in every FloodResult field and in the RNG end-state.
//
// The interference inputs pin the engine's per-node interference table and
// per-step activity pass (phy::BoundInterference) against the reference's
// per-listener InterferenceField::sample: static jamming, office ambient,
// D-Cube WiFi levels 1 and 2 on two channels (different AP subsets active),
// a training schedule (dozens of windowed jammers, many silent steps), the
// dynamic timeline with slots that cross its phase edges (a jammer's window
// opens or closes inside the slot, so the per-flood source selection keeps
// a source that is silent at some of its steps) and a restricted() cell
// under its parent's WiFi APs.
//
// A long-run case pushes 200 consecutive floods per input through each
// engine with one workspace, result and RNG: office18 and dcube48 clean and
// interfered, a 64-node culled campus and the 130-node campuses.
//
// The settled-reception inputs (phy::Reception::success, DESIGN.md §12)
// sweep frames of 7-133 B over dcube48 under WiFi level 2, with fading on
// and off, and over office18 under 30% static jamming, whose partial
// exposures give listeners two different bit-carrying SINRs.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "phy/link_model.hpp"
#include "phy/per.hpp"
#include "phy/reception.hpp"
#include "phy/sparse_link_model.hpp"
#include "phy/topology.hpp"
#include "reference_glossy.hpp"
#include "util/rng.hpp"

namespace dimmer::flood {
namespace {

void expect_identical(const FloodResult& a, const FloodResult& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(a.initiator, b.initiator);
  EXPECT_EQ(a.steps_simulated, b.steps_simulated);
  ASSERT_EQ(a.participated.size(), b.participated.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(a.participated[i], b.participated[i]);
    EXPECT_EQ(a.nodes[i].received, b.nodes[i].received);
    EXPECT_EQ(a.nodes[i].first_rx_step, b.nodes[i].first_rx_step);
    EXPECT_EQ(a.nodes[i].transmissions, b.nodes[i].transmissions);
    EXPECT_EQ(a.nodes[i].radio_on_us, b.nodes[i].radio_on_us);
  }
}

void expect_same_rng_state(util::Pcg32& a, util::Pcg32& b) {
  // Same stream position...
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
  // ...and the same Marsaglia spare state (a cached spare would make the
  // next normal() differ even with aligned raw streams).
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a.normal(), b.normal());
}

/// The unculled CSR rows without the diagonal. Exact: a transmitter's own
/// accumulators are never read in its TX step, so dropping its self-link
/// changes nothing observable — but rows become n-1 long, so every row
/// bitmap and rank differs from the full row's.
class DiagonalFreeLinkModel final : public phy::LinkModel {
 public:
  explicit DiagonalFreeLinkModel(const phy::Topology& topo)
      : inner_(topo) {}

  const phy::Topology& topology() const override { return inner_.topology(); }

  const phy::SparseLinkView& prepare(double tx_power_dbm) override {
    const phy::SparseLinkView& full = inner_.prepare(tx_power_dbm);
    row_ptr_.assign(1, 0);
    col_.clear();
    mw_.clear();
    for (phy::NodeId tx = 0; tx < full.n; ++tx) {
      for (std::size_t k = full.row_begin(tx); k < full.row_end(tx); ++k) {
        if (full.col[k] == tx) continue;
        col_.push_back(full.col[k]);
        mw_.push_back(full.mw[k]);
      }
      row_ptr_.push_back(col_.size());
    }
    bitmaps_ = phy::RowBitmaps(row_ptr_.data(), col_.data(), full.n);
    view_ = phy::SparseLinkView{row_ptr_.data(), col_.data(), mw_.data(),
                                bitmaps_.bits(), bitmaps_.rank(), full.n,
                                full.skip_unreached};
    return view_;
  }

 private:
  phy::SparseLinkModel inner_;
  std::vector<std::size_t> row_ptr_;
  std::vector<phy::NodeId> col_;
  std::vector<double> mw_;
  phy::RowBitmaps bitmaps_;
  phy::SparseLinkView view_;
};

/// Culled campus floor: links weaker than -80 dB (~21 m at the office
/// path-loss exponent) do not exist, so on the ~70 m wide 60-node campus
/// most listeners have no link to the initiator's corner.
constexpr double kCampusGainFloorDb = -80.0;

/// The inputs every clean and jammed case runs: the 130-node campuses are
/// wider than one 64-bit bitmap word.
constexpr const char* kTopologies[] = {
    "line",          "grid",      "office18",        "dcube48", "campus",
    "campus-culled", "campus130", "campus130-culled"};

struct Case {
  phy::Topology topo;
  phy::InterferenceField field;
};

phy::Topology topo_for(const std::string& name) {
  if (name == "line") return phy::make_line_topology(8, 12.0);
  if (name == "grid") return phy::make_grid_topology(4, 4, 10.0);
  if (name == "office18") return phy::make_office18_topology();
  if (name == "campus") return phy::make_campus_topology(60);
  if (name == "campus-culled")
    return phy::make_campus_topology_culled(60, 1, kCampusGainFloorDb);
  if (name == "campus130") return phy::make_campus_topology(130);
  if (name == "campus130-culled")
    return phy::make_campus_topology_culled(130, 1, kCampusGainFloorDb);
  return phy::make_dcube48_topology();
}

/// The engines every input runs through (see the file comment).
struct Engines {
  explicit Engines(const Case& c)
      : diag_free_links(c.topo),
        owning(c.topo, c.field),
        diag_free(diag_free_links, c.field) {}

  DiagonalFreeLinkModel diag_free_links;
  GlossyFlood owning;
  GlossyFlood diag_free;

  static constexpr const char* kNames[] = {"owning", "diagonal-free"};
  const GlossyFlood& operator[](int i) const {
    return i == 0 ? owning : diag_free;
  }
};

/// dcube48 under D-Cube WiFi `level` (3 APs at level 1, 8 at level 2).
Case dcube_wifi_case(int level) {
  Case c{phy::make_dcube48_topology(), phy::InterferenceField{}};
  phy::add_dcube_wifi_level(c.field, c.topo, level);
  return c;
}

/// The same nodes, gains and radio as `t`, with per-reception fading off:
/// no normal() draws, and every listener's SINR is its link's mean.
phy::Topology without_fading(const phy::Topology& t) {
  std::vector<phy::Vec2> pos;
  for (phy::NodeId i = 0; i < t.size(); ++i) pos.push_back(t.position(i));
  phy::PathLossModel model = t.path_loss();
  model.fading_sigma_db = 0.0;
  return phy::Topology(std::move(pos), model, t.radio(), t.shadow_seed(),
                       t.gain_floor_db());
}

/// Rows 2-5 of dcube48 as a restricted() cell, under the APs of the whole
/// deployment at WiFi level 2. Local ids are not parent ids, so the table
/// must key each member's shadowing on its parent id, as sample() does.
Case restricted_wifi_case() {
  const phy::Topology parent = phy::make_dcube48_topology();
  std::vector<phy::NodeId> members;
  for (phy::NodeId i = 16; i < parent.size(); ++i) members.push_back(i);
  Case c{parent.restricted(members), phy::InterferenceField{}};
  phy::add_dcube_wifi_level(c.field, parent, 2);
  return c;
}

/// office18 under a two-hour training schedule: dozens of windowed jammers
/// and night-time ambient sources, so many steps have no active source.
constexpr sim::TimeUs kTrainingSpan = sim::hours(2);

Case training_case() {
  Case c{phy::make_office18_topology(), phy::InterferenceField{}};
  core::add_training_schedule(c.field, c.topo, kTrainingSpan, 17);
  return c;
}

/// office18 under Fig. 4's timeline from 10 h: the office ambient (sources
/// 0-2, work hours) and the dynamic jamming phases (sources 3-6: 30% from 7
/// to 12 min, 5% from 17 to 22 min). Slots start before each phase edge
/// and cross it; at the 7 and 12 min edges a burst is in progress, so the
/// scenario window cuts it inside the slot.
constexpr sim::TimeUs kDynamicOrigin = sim::hours(10);
constexpr int kDynamicEdgeMinutes[] = {7, 12, 17, 22};
constexpr sim::TimeUs kDynamicEdgeOffsets[] = {-19'000, -12'345, -5'000, -156};

/// Short slots of 2-4 steps whose last step alone straddles the 7 min edge:
/// the 30% jammer can burst in that step only, so a per-flood source
/// selection over less than the whole slot would miss it.
constexpr int kShortSlotSteps[] = {2, 3, 4};
constexpr std::uint64_t kShortSlotSeeds[] = {4, 404, 4040, 40404};

FloodParams last_step_edge_params(const phy::Topology& topo, int slot_steps) {
  FloodParams p;
  const sim::TimeUs step = GlossyFlood::step_len_us(p, topo.radio());
  p.slot_len_us = slot_steps * step;
  p.slot_start_us =
      kDynamicOrigin + sim::minutes(7) - (slot_steps - 1) * step - 100;
  return p;
}

Case dynamic_jamming_case() {
  Case c{phy::make_office18_topology(), phy::InterferenceField{}};
  core::add_office_ambient(c.field, c.topo);
  core::add_dynamic_jamming(c.field, c.topo, phy::kControlChannel,
                            kDynamicOrigin);
  return c;
}

Case make_case(const std::string& name, double jam_duty) {
  Case c{topo_for(name), phy::InterferenceField{}};
  if (jam_duty > 0.0 &&
      (name == "office18" || name == "dcube48")) {
    core::add_static_jamming(c.field, c.topo, jam_duty);
  } else if (jam_duty > 0.0) {
    // Line/grid/campus topologies have no office jammer positions; use
    // ambient office noise as the interference source instead.
    core::add_office_ambient(c.field, c.topo);
  }
  return c;
}

void run_differential(const Case& c,
                      const std::vector<NodeFloodConfig>& configs,
                      phy::NodeId initiator, const FloodParams& params,
                      std::uint64_t seed) {
  ASSERT_EQ(static_cast<int>(configs.size()), c.topo.size());

  Engines engines(c);
  for (int e = 0; e < 2; ++e) {
    SCOPED_TRACE(Engines::kNames[e]);
    util::Pcg32 rng_ref(seed);
    FloodResult want =
        reference::run(c.topo, c.field, initiator, configs, params, rng_ref);

    util::Pcg32 rng_new(seed);
    FloodResult got = engines[e].run(initiator, configs, params, rng_new);

    expect_identical(want, got);
    expect_same_rng_state(rng_ref, rng_new);
  }
}

void run_differential(const std::string& topo_name, double jam_duty,
                      const std::vector<NodeFloodConfig>& configs,
                      phy::NodeId initiator, const FloodParams& params,
                      std::uint64_t seed) {
  run_differential(make_case(topo_name, jam_duty), configs, initiator, params,
                   seed);
}

std::vector<NodeFloodConfig> uniform_configs(int n, int n_tx) {
  return std::vector<NodeFloodConfig>(static_cast<std::size_t>(n),
                                      NodeFloodConfig{n_tx, true});
}

/// Ids of the sources of `field` active somewhere in [t0, t1) on `ch`.
std::set<std::size_t> active_sources(const phy::InterferenceField& field,
                                     sim::TimeUs t0, sim::TimeUs t1,
                                     phy::Channel ch) {
  std::set<std::size_t> out;
  for (std::size_t s = 0; s < field.size(); ++s)
    if (field.source(s).activity(t0, t1, ch) > 0.0) out.insert(s);
  return out;
}

TEST(FloodDifferential, CulledCampusHasUnreachableListeners) {
  // The culled inputs only exercise the unreachable-listener draws if some
  // link is missing — here, from the initiator (node 0) to the far corner.
  for (const char* name : {"campus-culled", "campus130-culled"}) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.0);
    const phy::NodeId far = c.topo.size() - 1;
    EXPECT_EQ(c.topo.gain_db(0, far),
              -std::numeric_limits<double>::infinity());
  }
}

TEST(FloodDifferential, CleanTopologies) {
  for (const char* name : kTopologies) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.0);
    const int n = c.topo.size();
    for (std::uint64_t seed : {1ULL, 77ULL, 4242ULL}) {
      run_differential(name, 0.0, uniform_configs(n, 3), 0, FloodParams{},
                       seed);
    }
  }
}

TEST(FloodDifferential, JammedTopologies) {
  for (const char* name : kTopologies) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.3);
    const int n = c.topo.size();
    for (std::uint64_t seed : {9ULL, 1234ULL}) {
      FloodParams p;
      p.slot_start_us = sim::seconds(5);  // land inside jammer bursts
      run_differential(name, 0.3, uniform_configs(n, 3), n / 2, p, seed);
    }
  }
}

TEST(FloodDifferential, InterferenceInputsCoverTheirClaims) {
  // Channel 26 and hopping channel 15 see different, non-empty AP subsets
  // at both WiFi levels.
  for (int level : {1, 2}) {
    SCOPED_TRACE("WiFi level " + std::to_string(level));
    Case c = dcube_wifi_case(level);
    const auto on26 = active_sources(c.field, 0, sim::seconds(10), 26);
    const auto on15 = active_sources(c.field, 0, sim::seconds(10), 15);
    EXPECT_FALSE(on26.empty());
    EXPECT_FALSE(on15.empty());
    EXPECT_NE(on26, on15);
  }
  // The training schedule has dozens of sources, and some step windows
  // across it have none active.
  Case t = training_case();
  EXPECT_GE(t.field.size(), 24u);
  int silent = 0;
  for (sim::TimeUs at = 0; at < kTrainingSpan; at += sim::seconds(30))
    silent += active_sources(t.field, at, at + sim::ms(2),
                             phy::kControlChannel)
                  .empty();
  EXPECT_GT(silent, 0);
  // A dynamic-timeline slot starting 5 ms before the 7 min edge has no
  // jammer active at its first step and one at its fifth, the first step
  // after the edge.
  Case d = dynamic_jamming_case();
  ASSERT_EQ(d.field.size(), 7u);
  const FloodParams p;
  const sim::TimeUs step = GlossyFlood::step_len_us(p, d.topo.radio());
  const sim::TimeUs airtime = step - p.processing_us;
  const sim::TimeUs slot = kDynamicOrigin + sim::minutes(7) - 5'000;
  auto jammers_at = [&](int t) {
    int n = 0;
    for (std::size_t s : active_sources(d.field, slot + t * step,
                                        slot + t * step + airtime, p.channel))
      n += s >= 3;
    return n;
  };
  EXPECT_EQ(jammers_at(0), 0);
  EXPECT_GT(jammers_at(4), 0);
  // In the short slots a jammer is active at the last step only, and some
  // of their floods decide a listener there (it first receives at that
  // step).
  const int n = d.topo.size();
  int last_step_rx = 0;
  for (int slot_steps : kShortSlotSteps) {
    const FloodParams sp = last_step_edge_params(d.topo, slot_steps);
    const sim::TimeUs last = sp.slot_start_us + (slot_steps - 1) * step;
    int jammed_steps = 0;
    for (int t = 0; t < slot_steps; ++t) {
      const sim::TimeUs t0 = sp.slot_start_us + t * step;
      for (std::size_t s : active_sources(d.field, t0, t0 + airtime, sp.channel))
        jammed_steps += s >= 3;
    }
    EXPECT_EQ(jammed_steps, 1) << slot_steps << " steps";
    EXPECT_FALSE(active_sources(d.field, last, last + airtime, sp.channel)
                     .empty());
    for (std::uint64_t seed : kShortSlotSeeds) {
      util::Pcg32 rng(seed);
      const FloodResult r = reference::run(d.topo, d.field, (7 + 5) % n,
                                           uniform_configs(n, 3), sp, rng);
      for (const NodeFloodResult& node : r.nodes)
        last_step_rx += node.first_rx_step == slot_steps - 1;
    }
  }
  EXPECT_GT(last_step_rx, 0);
}

TEST(FloodDifferential, DcubeWifiLevelsOnTwoChannels) {
  for (int level : {1, 2}) {
    Case c = dcube_wifi_case(level);
    const int n = c.topo.size();
    for (phy::Channel ch : {phy::Channel{26}, phy::Channel{15}}) {
      for (std::uint64_t seed : {5ULL, 606ULL}) {
        for (int k = 0; k < 8; ++k) {
          SCOPED_TRACE("level " + std::to_string(level) + " channel " +
                       std::to_string(ch) + " seed " + std::to_string(seed) +
                       " slot " + std::to_string(k));
          FloodParams p;
          p.channel = ch;
          p.slot_start_us = sim::seconds(3) + k * sim::ms(53);
          run_differential(c, uniform_configs(n, 3), (k * 13) % n, p, seed);
        }
      }
    }
  }
}

/// Payloads of frames from 7 B to 133 B; 30 B is the paper's.
constexpr int kSettledPayloads[] = {1, 8, 9, 12, 30, 127};

/// office18 under 30% static jamming: two jammers with 13 ms bursts every
/// 43.333 ms, the second half a period after the first. The slots start
/// 100 us before each burst edge near 5 s, so their first step straddles
/// it, then inside one burst and between bursts.
constexpr std::uint64_t kJammedSeeds[] = {17, 1717};
constexpr sim::TimeUs kJammedSlotStarts[] = {4'996'195, 5'004'861, 5'017'861,
                                             5'026'528, 5'010'000, 5'022'000};
constexpr int kJammedSlots = static_cast<int>(std::size(kJammedSlotStarts));

FloodParams jammed_params(int payload, int k) {
  FloodParams p;
  p.payload_bytes = payload;
  p.slot_start_us = kJammedSlotStarts[k];
  return p;
}

TEST(FloodDifferential, SettledReceptionInputsCoverTheirClaims) {
  // The fading-off dcube48 keeps the shipped gains, and its links span the
  // bracket's three regions: clean SNRs at or below -10 dB, on its grid,
  // and at or above 7 dB.
  const phy::Topology faded = phy::make_dcube48_topology();
  const phy::Topology flat = without_fading(faded);
  EXPECT_GT(faded.path_loss().fading_sigma_db, 0.0);
  EXPECT_EQ(flat.path_loss().fading_sigma_db, 0.0);
  int floor_links = 0, grid_links = 0, saturated_links = 0;
  for (phy::NodeId a = 0; a < flat.size(); ++a) {
    for (phy::NodeId b = 0; b < flat.size(); ++b) {
      EXPECT_EQ(flat.gain_db(a, b), faded.gain_db(a, b));
      if (a == b) continue;
      const double snr_db =
          flat.rx_power_dbm(a, b, 0.0) - flat.radio().noise_floor_dbm;
      floor_links += snr_db <= phy::kFloorSinrDb;
      grid_links += snr_db > phy::kFloorSinrDb && snr_db < phy::kSaturatedSinrDb;
      saturated_links += snr_db >= phy::kSaturatedSinrDb;
    }
  }
  EXPECT_GT(floor_links, 0);
  EXPECT_GT(grid_links, 0);
  EXPECT_GT(saturated_links, 0);
  // At every payload, some steps the office18 floods simulate have a
  // partial exposure.
  Case c = make_case("office18", 0.3);
  const int n = c.topo.size();
  const auto cfgs = uniform_configs(n, 3);
  for (int payload : kSettledPayloads) {
    int partial = 0;
    for (std::uint64_t seed : kJammedSeeds) {
      for (int k = 0; k < kJammedSlots; ++k) {
        const FloodParams p = jammed_params(payload, k);
        util::Pcg32 rng(seed);
        const FloodResult r =
            reference::run(c.topo, c.field, (k * 5) % n, cfgs, p, rng);
        const sim::TimeUs step = GlossyFlood::step_len_us(p, c.topo.radio());
        const sim::TimeUs airtime = step - p.processing_us;
        for (int t = 0; t < r.steps_simulated; ++t) {
          const sim::TimeUs t0 = p.slot_start_us + t * step;
          const double exposure =
              c.field.sample(t0, t0 + airtime, p.channel, 0, c.topo).exposure;
          partial += exposure > 0.0 && exposure < 1.0;
        }
      }
    }
    EXPECT_GT(partial, 0) << "payload " << payload;
  }
}

TEST(FloodDifferential, SettledReceptionsAcrossFrameLengths) {
  // dcube48 under WiFi level 2, with and without fading.
  for (bool fading : {true, false}) {
    Case c = dcube_wifi_case(2);
    if (!fading) {
      c = Case{without_fading(c.topo), phy::InterferenceField{}};
      phy::add_dcube_wifi_level(c.field, c.topo, 2);
    }
    const int n = c.topo.size();
    for (int payload : kSettledPayloads) {
      for (std::uint64_t seed : {13ULL, 1313ULL}) {
        for (int k = 0; k < 6; ++k) {
          SCOPED_TRACE(std::string(fading ? "fading" : "no fading") +
                       " payload " + std::to_string(payload) + " seed " +
                       std::to_string(seed) + " slot " + std::to_string(k));
          FloodParams p;
          p.payload_bytes = payload;
          p.slot_start_us = sim::seconds(2) + k * sim::ms(61);
          run_differential(c, uniform_configs(n, 3), (k * 11) % n, p, seed);
        }
      }
    }
  }
}

TEST(FloodDifferential, SettledReceptionsUnderPartialExposure) {
  // office18 under 30% static jamming: two bit-carrying SINRs per listener.
  Case c = make_case("office18", 0.3);
  const int n = c.topo.size();
  for (int payload : kSettledPayloads) {
    for (std::uint64_t seed : kJammedSeeds) {
      for (int k = 0; k < kJammedSlots; ++k) {
        SCOPED_TRACE("payload " + std::to_string(payload) + " seed " +
                     std::to_string(seed) + " slot " + std::to_string(k));
        run_differential(c, uniform_configs(n, 3), (k * 5) % n,
                         jammed_params(payload, k), seed);
      }
    }
  }
}

TEST(FloodDifferential, TrainingScheduleWindowedJammers) {
  Case c = training_case();
  const int n = c.topo.size();
  for (std::uint64_t seed : {2ULL, 71ULL}) {
    for (sim::TimeUs at = 0; at < kTrainingSpan; at += sim::minutes(7)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " at " +
                   std::to_string(at));
      FloodParams p;
      p.slot_start_us = at;
      run_differential(c, uniform_configs(n, 3),
                       static_cast<phy::NodeId>(at / sim::minutes(7)) % n, p,
                       seed);
    }
  }
}

TEST(FloodDifferential, DynamicJammingSlotsCrossPhaseEdges) {
  Case c = dynamic_jamming_case();
  const int n = c.topo.size();
  for (int minute : kDynamicEdgeMinutes) {
    for (sim::TimeUs offset : kDynamicEdgeOffsets) {
      for (std::uint64_t seed : {4ULL, 404ULL}) {
        SCOPED_TRACE("edge " + std::to_string(minute) + " min, offset " +
                     std::to_string(offset) + " us, seed " +
                     std::to_string(seed));
        FloodParams p;
        p.slot_start_us = kDynamicOrigin + sim::minutes(minute) + offset;
        run_differential(c, uniform_configs(n, 3), (minute + 5) % n, p, seed);
      }
    }
  }
  for (int slot_steps : kShortSlotSteps) {
    for (std::uint64_t seed : kShortSlotSeeds) {
      SCOPED_TRACE(std::to_string(slot_steps) + "-step slot, seed " +
                   std::to_string(seed));
      run_differential(c, uniform_configs(n, 3), (7 + 5) % n,
                       last_step_edge_params(c.topo, slot_steps), seed);
    }
  }
}

TEST(FloodDifferential, RestrictedCellUnderParentWifi) {
  Case c = restricted_wifi_case();
  const int n = c.topo.size();
  for (phy::Channel ch : {phy::Channel{26}, phy::Channel{15}}) {
    for (std::uint64_t seed : {8ULL, 808ULL}) {
      SCOPED_TRACE("channel " + std::to_string(ch) + " seed " +
                   std::to_string(seed));
      FloodParams p;
      p.channel = ch;
      p.slot_start_us = sim::seconds(4);
      run_differential(c, uniform_configs(n, 3), n / 2, p, seed);
    }
  }
}

TEST(FloodDifferential, MixedBudgetsAndPassiveReceivers) {
  Case probe = make_case("office18", 0.0);
  const int n = probe.topo.size();
  auto cfgs = uniform_configs(n, 3);
  for (int i = 0; i < n; ++i) {
    cfgs[static_cast<std::size_t>(i)].n_tx = i % 4;  // includes n_tx = 0
  }
  for (std::uint64_t seed : {3ULL, 31ULL, 314ULL}) {
    run_differential("office18", 0.0, cfgs, 1, FloodParams{}, seed);
    run_differential("office18", 0.3, cfgs, 1, FloodParams{}, seed);
  }
}

TEST(FloodDifferential, NonParticipantsFaultStyle) {
  // Crashed/desynced nodes sit floods out, as the fault injector produces.
  Case probe = make_case("dcube48", 0.0);
  const int n = probe.topo.size();
  auto cfgs = uniform_configs(n, 2);
  for (int i = 0; i < n; i += 5)
    cfgs[static_cast<std::size_t>(i)].participates = false;
  cfgs[3].participates = true;  // keep the initiator participating
  for (std::uint64_t seed : {11ULL, 99ULL}) {
    run_differential("dcube48", 0.0, cfgs, 3, FloodParams{}, seed);
    run_differential("dcube48", 0.3, cfgs, 3, FloodParams{}, seed);
  }
}

TEST(FloodDifferential, MultipleInitiators) {
  Case probe = make_case("grid", 0.0);
  const int n = probe.topo.size();
  for (phy::NodeId init : {0, 5, 15}) {
    SCOPED_TRACE("initiator " + std::to_string(init));
    run_differential("grid", 0.0, uniform_configs(n, 3), init, FloodParams{},
                     21u);
  }
}

TEST(FloodDifferential, AlternatingTxPowerRebindsCache) {
  // Back-to-back floods at different TX powers through ONE engine must each
  // match the reference — the cached link matrix rebinds per power.
  Case c = make_case("office18", 0.3);
  const int n = c.topo.size();
  auto cfgs = uniform_configs(n, 3);

  Engines engines(c);
  for (int e = 0; e < 2; ++e) {
    SCOPED_TRACE(Engines::kNames[e]);
    util::Pcg32 rng_new(55);
    util::Pcg32 rng_ref(55);
    for (double power : {0.0, -7.0, 0.0, 3.0, -7.0}) {
      SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
      FloodParams p;
      p.tx_power_dbm = power;
      FloodResult want = reference::run(c.topo, c.field, 0, cfgs, p, rng_ref);
      FloodResult got = engines[e].run(0, cfgs, p, rng_new);
      expect_identical(want, got);
    }
    expect_same_rng_state(rng_ref, rng_new);
  }
}

TEST(FloodDifferential, RunIntoReusedBuffersMatchFreshRuns) {
  // run_into with dirty, reused workspace/result buffers must equal the
  // reference: buffer reuse is invisible in the results. The rounds
  // alternate office18 (one bitset word per node set) with the 130-node
  // campus (three), so the workspace shrinks and grows between floods.
  const Case office = make_case("office18", 0.3);
  const Case campus = make_case("campus130", 0.3);
  const Case* cases[] = {&office, &campus};
  std::vector<NodeFloodConfig> cfgs[2];
  for (int k = 0; k < 2; ++k) {
    cfgs[k] = uniform_configs(cases[k]->topo.size(), 3);
    cfgs[k][4].n_tx = 0;
    cfgs[k][9].participates = false;
  }

  const Engines office_engines(office);
  const Engines campus_engines(campus);
  const Engines* engines[] = {&office_engines, &campus_engines};
  for (int e = 0; e < 2; ++e) {
    SCOPED_TRACE(Engines::kNames[e]);
    FloodWorkspace ws;
    FloodResult reused;
    util::Pcg32 rng_ref(88);
    util::Pcg32 rng_new(88);
    for (int round = 0; round < 8; ++round) {
      const int k = round % 2;
      const Case& c = *cases[k];
      const int n = c.topo.size();
      SCOPED_TRACE("round " + std::to_string(round));
      FloodParams p;
      p.slot_start_us = round * sim::ms(40);
      phy::NodeId init = static_cast<phy::NodeId>((round * 3) % n);
      if (!cfgs[k][static_cast<std::size_t>(init)].participates) init += 1;
      FloodResult want =
          reference::run(c.topo, c.field, init, cfgs[k], p, rng_ref);
      (*engines[k])[e].run_into(init, cfgs[k], p, rng_new, ws, reused);
      expect_identical(want, reused);
    }
    expect_same_rng_state(rng_ref, rng_new);
  }
}

TEST(FloodDifferential, LongRunsOnOneWorkspaceMatchTheReference) {
  // 200 consecutive floods per input through each engine with one
  // workspace, result and RNG, with the initiator rotating over every node
  // and slots 25 ms apart: anything a flood leaves behind in the reused
  // buffers, or any drift between the two RNG streams, shows in a later
  // flood.
  struct LongRun {
    const char* name;
    Case c;
    int n_tx;
  };
  std::vector<LongRun> runs;
  runs.push_back({"office18/clean", make_case("office18", 0.0), 3});
  runs.push_back({"office18/jam30", make_case("office18", 0.3), 3});
  runs.push_back({"dcube48/clean", make_case("dcube48", 0.0), 2});
  runs.push_back({"dcube48/wifi2", dcube_wifi_case(2), 2});
  runs.push_back({"campus64-culled",
                  Case{phy::make_campus_topology_culled(64, 1,
                                                        kCampusGainFloorDb),
                       phy::InterferenceField{}},
                  3});
  runs.push_back({"campus130", make_case("campus130", 0.0), 3});
  runs.push_back({"campus130-culled", make_case("campus130-culled", 0.0), 3});
  for (const LongRun& run : runs) {
    SCOPED_TRACE(run.name);
    const int n = run.c.topo.size();
    const auto cfgs = uniform_configs(n, run.n_tx);
    const Engines engines(run.c);
    for (int e = 0; e < 2; ++e) {
      SCOPED_TRACE(Engines::kNames[e]);
      FloodWorkspace ws;
      FloodResult got;
      util::Pcg32 rng_ref(1234);
      util::Pcg32 rng_new(1234);
      for (int k = 0; k < 200; ++k) {
        SCOPED_TRACE("flood " + std::to_string(k));
        FloodParams p;
        p.slot_start_us = k * sim::ms(25);
        const FloodResult want =
            reference::run(run.c.topo, run.c.field, k % n, cfgs, p, rng_ref);
        engines[e].run_into(k % n, cfgs, p, rng_new, ws, got);
        expect_identical(want, got);
        if (::testing::Test::HasFailure()) return;  // report the first only
      }
      expect_same_rng_state(rng_ref, rng_new);
    }
  }
}

/// Runs the owning engine (full rows on an unculled topology) and the
/// diagonal-free engine from identical RNG states and asserts bit-identity.
void run_sparse_differential(const std::string& topo_name, double jam_duty,
                             const std::vector<NodeFloodConfig>& configs,
                             phy::NodeId initiator, const FloodParams& params,
                             std::uint64_t seed) {
  Case c = make_case(topo_name, jam_duty);
  ASSERT_EQ(static_cast<int>(configs.size()), c.topo.size());

  Engines engines(c);
  util::Pcg32 rng_dense(seed);
  FloodResult want = engines.owning.run(initiator, configs, params, rng_dense);
  util::Pcg32 rng_sparse(seed);
  FloodResult got =
      engines.diag_free.run(initiator, configs, params, rng_sparse);

  expect_identical(want, got);
  expect_same_rng_state(rng_dense, rng_sparse);
}

TEST(SparseDifferential, CleanTopologies) {
  for (const char* name : {"line", "grid", "office18", "dcube48", "campus"}) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.0);
    const int n = c.topo.size();
    for (std::uint64_t seed : {1ULL, 77ULL, 4242ULL}) {
      run_sparse_differential(name, 0.0, uniform_configs(n, 3), 0,
                              FloodParams{}, seed);
    }
  }
}

TEST(SparseDifferential, JammedTopologies) {
  for (const char* name : {"line", "grid", "office18", "dcube48"}) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.3);
    const int n = c.topo.size();
    for (std::uint64_t seed : {9ULL, 1234ULL}) {
      FloodParams p;
      p.slot_start_us = sim::seconds(5);  // land inside jammer bursts
      run_sparse_differential(name, 0.3, uniform_configs(n, 3), n / 2, p,
                              seed);
    }
  }
}

TEST(SparseDifferential, MixedBudgetsAndPassiveReceivers) {
  Case probe = make_case("dcube48", 0.0);
  const int n = probe.topo.size();
  auto cfgs = uniform_configs(n, 3);
  for (int i = 0; i < n; ++i) {
    cfgs[static_cast<std::size_t>(i)].n_tx = i % 4;  // includes n_tx = 0
  }
  for (int i = 0; i < n; i += 7)
    cfgs[static_cast<std::size_t>(i)].participates = false;
  cfgs[3].participates = true;  // keep the initiator participating
  for (std::uint64_t seed : {3ULL, 31ULL, 314ULL}) {
    run_sparse_differential("dcube48", 0.0, cfgs, 3, FloodParams{}, seed);
    run_sparse_differential("dcube48", 0.3, cfgs, 3, FloodParams{}, seed);
  }
}

TEST(SparseDifferential, AlternatingTxPowerRebindsCsr) {
  // Back-to-back floods at different TX powers through ONE engine per
  // link model: both rebind their CSR rows per power.
  Case c = make_case("office18", 0.3);
  const int n = c.topo.size();
  auto cfgs = uniform_configs(n, 3);

  Engines engines(c);
  util::Pcg32 rng_dense(55);
  util::Pcg32 rng_sparse(55);
  for (double power : {0.0, -7.0, 0.0, 3.0, -7.0}) {
    SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
    FloodParams p;
    p.tx_power_dbm = power;
    FloodResult want = engines.owning.run(0, cfgs, p, rng_dense);
    FloodResult got = engines.diag_free.run(0, cfgs, p, rng_sparse);
    expect_identical(want, got);
  }
  expect_same_rng_state(rng_dense, rng_sparse);
}

TEST(SparseDifferential, RunIntoReusedBuffersMatchDense) {
  // Reused workspace/result buffers on diagonal-free rows must be as
  // invisible as fresh run()s on full rows.
  Case c = make_case("dcube48", 0.3);
  const int n = c.topo.size();
  auto cfgs = uniform_configs(n, 3);
  cfgs[4].n_tx = 0;
  cfgs[9].participates = false;

  Engines engines(c);
  FloodWorkspace ws;
  FloodResult reused;
  util::Pcg32 rng_dense(88);
  util::Pcg32 rng_sparse(88);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    FloodParams p;
    p.slot_start_us = round * sim::ms(40);
    phy::NodeId init = static_cast<phy::NodeId>((round * 3) % n);
    if (!cfgs[static_cast<std::size_t>(init)].participates) init += 1;
    FloodResult want = engines.owning.run(init, cfgs, p, rng_dense);
    engines.diag_free.run_into(init, cfgs, p, rng_sparse, ws, reused);
    expect_identical(want, reused);
  }
  expect_same_rng_state(rng_dense, rng_sparse);
}

}  // namespace
}  // namespace dimmer::flood
