// Interference sources.
//
// Every source is a positioned transmitter with a *pure* activity function:
// given an interval and a channel it reports which fraction of the interval
// the source occupies. Purity (no mutable state) lets the flood engine query
// arbitrary time windows in any order while staying fully deterministic.
//
// Two further contracts let a flood skip the sources that cannot burst in
// its slot (BoundInterference::select, DESIGN.md §10), and every source type
// keeps both (tests/phy/test_interference.cpp checks them on random windows
// over all 16 channels):
//  1. activity() is 0.0 over any window that misses active_window().
//  2. A source that is silent (activity() == 0.0) over a window is silent
//     over every sub-window of it. All three types sum non-negative integer
//     overlaps with bursts that are fixed in time, whatever the window.
//
// Three families mirror the paper's scenarios:
//  - BurstJammer: JamLab-style periodic 13 ms bursts (controlled 802.15.4
//    interference, §V-A), plus on/off scenario windows.
//  - WifiInterferer: WiFi-like traffic bursts blanketing the 802.15.4
//    channels under a WiFi channel (D-Cube levels, §V-E).
//  - AmbientInterferer: low-duty office background (WiFi/Bluetooth PANs
//    "outside of our control ... during work hours").
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "phy/channels.hpp"
#include "phy/geometry.hpp"
#include "phy/topology.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace dimmer::phy {

/// A half-open span of time [start_us, stop_us); by default the whole
/// timeline.
struct TimeWindow {
  sim::TimeUs start_us = std::numeric_limits<sim::TimeUs>::min();
  sim::TimeUs stop_us = std::numeric_limits<sim::TimeUs>::max();

  /// True when the non-empty [t0,t1) shares a microsecond with the window.
  bool meets(sim::TimeUs t0, sim::TimeUs t1) const {
    return t0 < stop_us && start_us < t1;
  }
};

class InterferenceSource {
 public:
  virtual ~InterferenceSource() = default;

  /// Fraction of [t0,t1) during which the source transmits on `ch`, in [0,1].
  virtual double activity(sim::TimeUs t0, sim::TimeUs t1, Channel ch) const = 0;

  /// The span outside which activity() is 0.0 on every channel (contract 1
  /// above): the whole timeline unless the source has a scenario window.
  virtual TimeWindow active_window() const { return {}; }

  virtual Vec2 position() const = 0;
  virtual double tx_power_dbm() const = 0;

  /// Stable identity for shadowing draws toward network nodes.
  virtual std::uint64_t shadow_tag() const = 0;
};

/// JamLab-style periodic jammer: `burst` of carrier every `period`, within an
/// optional [start,stop) scenario window. Channels are an explicit set.
class BurstJammer : public InterferenceSource {
 public:
  struct Config {
    Vec2 position{};
    double tx_power_dbm = 0.0;
    sim::TimeUs burst_us = sim::ms(13);   ///< "13 ms TX bursts" (§V-A)
    sim::TimeUs period_us = sim::ms(130); ///< e.g. 10% duty
    sim::TimeUs phase_us = 0;
    sim::TimeUs start_us = 0;
    sim::TimeUs stop_us = -1;  ///< -1: never stops
    std::vector<Channel> channels{kControlChannel};
    std::uint64_t tag = 1;
  };

  explicit BurstJammer(Config cfg);

  double activity(sim::TimeUs t0, sim::TimeUs t1, Channel ch) const override;
  /// [start_us, stop_us), open-ended when stop_us < 0.
  TimeWindow active_window() const override;
  Vec2 position() const override { return cfg_.position; }
  double tx_power_dbm() const override { return cfg_.tx_power_dbm; }
  std::uint64_t shadow_tag() const override { return cfg_.tag; }

  const Config& config() const { return cfg_; }

  /// Convenience: a jammer occupying the medium `duty` (0..1) of the time
  /// with 13 ms bursts, the paper's parameterisation ("a 10% interference
  /// corresponds to a 13 ms burst every 130 ms").
  static Config jamlab(Vec2 pos, double duty, Channel ch = kControlChannel,
                       std::uint64_t tag = 1);

 private:
  Config cfg_;
};

/// WiFi-like interferer: in every frame of `frame_us` it emits one burst of
/// hash-randomised length (mean `duty * frame_us`) at a hash-randomised
/// offset, covering all 802.15.4 channels under its WiFi channel.
class WifiInterferer : public InterferenceSource {
 public:
  struct Config {
    Vec2 position{};
    double tx_power_dbm = 12.0;   ///< APs are louder than motes
    int wifi_channel = 13;        ///< covers 802.15.4 channels 24..26
    double duty = 0.4;            ///< mean occupied fraction
    sim::TimeUs frame_us = sim::ms(40);
    sim::TimeUs start_us = 0;
    sim::TimeUs stop_us = -1;
    std::uint64_t seed = 7;
    std::uint64_t tag = 100;
  };

  explicit WifiInterferer(Config cfg);

  double activity(sim::TimeUs t0, sim::TimeUs t1, Channel ch) const override;
  /// [start_us, stop_us), open-ended when stop_us < 0.
  TimeWindow active_window() const override;
  Vec2 position() const override { return cfg_.position; }
  double tx_power_dbm() const override { return cfg_.tx_power_dbm; }
  std::uint64_t shadow_tag() const override { return cfg_.tag; }

  const Config& config() const { return cfg_; }

 private:
  bool covers(Channel ch) const;
  double frame_overlap(sim::TimeUs t0, sim::TimeUs t1,
                       std::int64_t frame_idx) const;

  Config cfg_;
  std::vector<Channel> covered_;
};

/// Ambient office background: independent low-duty bursts on every channel,
/// modulated by a work-hours profile (quiet at night).
class AmbientInterferer : public InterferenceSource {
 public:
  struct Config {
    Vec2 position{};
    double tx_power_dbm = -4.0;
    double day_duty = 0.06;    ///< mean duty during work hours
    double night_duty = 0.003; ///< "experiments run at night" are clean
    sim::TimeUs frame_us = sim::ms(60);
    /// Burst length as a fraction of the frame. Ambient traffic (Bluetooth
    /// polls, WiFi beacons/ACKs) is short: a few ms. Short bursts are what
    /// extra retransmissions can actually escape within a slot.
    double burst_fraction = 1.0 / 12.0;
    double day_start_h = 8.0;  ///< work-hours window within a 24 h day
    double day_end_h = 19.0;
    std::uint64_t seed = 11;
    std::uint64_t tag = 200;
  };

  explicit AmbientInterferer(Config cfg);

  double activity(sim::TimeUs t0, sim::TimeUs t1, Channel ch) const override;
  Vec2 position() const override { return cfg_.position; }
  double tx_power_dbm() const override { return cfg_.tx_power_dbm; }
  std::uint64_t shadow_tag() const override { return cfg_.tag; }

 private:
  double duty_at(sim::TimeUs t) const;

  Config cfg_;
};

/// What a receiver experiences during one packet reception window.
struct InterferenceSample {
  double power_mw = 0.0;  ///< summed received interference power when jammed
  double exposure = 0.0;  ///< fraction of the window exposed to interference
};

/// An owning collection of interference sources, sampled per reception.
class InterferenceField {
 public:
  InterferenceField() = default;

  void add(std::unique_ptr<InterferenceSource> src);
  std::size_t size() const { return sources_.size(); }
  bool empty() const { return sources_.empty(); }
  void clear() { sources_.clear(); }

  /// Source `i` in insertion order, the order sample() sums in.
  const InterferenceSource& source(std::size_t i) const { return *sources_[i]; }

  /// Received interference at node `rx` for a packet spanning [t0,t1) on `ch`.
  InterferenceSample sample(sim::TimeUs t0, sim::TimeUs t1, Channel ch,
                            NodeId rx, const Topology& topo) const;

 private:
  std::vector<std::unique_ptr<InterferenceSource>> sources_;
};

/// An InterferenceField bound to one Topology: sample() split into a
/// per-flood, a per-step and a per-listener part for the flood hot path
/// (DESIGN.md §10, "Interference binding").
///
/// Binding computes once the received power of every source at every node,
/// node-major (n rows of S mW entries), with the expression sample() uses,
/// and copies each source's active_window(). Once per flood, select() keeps
/// the sources whose window meets the flood's step span and whose
/// activity() over that span is above 0, in ascending id order. By the two
/// source contracts every other source reads 0.0 at every step of the flood,
/// and sample() skips a 0.0. scan() then runs one activity pass per step
/// window over that selection, listing the active sources in ascending order
/// with their max activity as the exposure, and power_mw() sums a listener's
/// row over that list starting from 0.0. These are the adds sample()
/// performs, in its order, so the three are bit-identical to
/// sample(t0, t1, ch, rx, topo); activity() is pure and does not depend on
/// the listener, so one pass serves every listener of the step.
///
/// The table is a snapshot: the field must not gain or lose sources while
/// bound (require_unchanged() checks the count). The field must outlive the
/// binding; the topology is read only while binding.
class BoundInterference {
 public:
  BoundInterference(const InterferenceField& field, const Topology& topo);

  std::size_t source_count() const { return sources_; }

  /// Throws util::RequireError if the field's source count changed since
  /// binding.
  void require_unchanged() const;

  /// Once per flood, over its whole step span [t0,t1) on `ch`: writes the
  /// ids of the sources that can be active in the span to the front of
  /// `selected` in ascending order and returns how many there are.
  /// `selected` must hold source_count() ids.
  std::size_t select(sim::TimeUs t0, sim::TimeUs t1, Channel ch,
                     std::span<std::size_t> selected) const;

  /// One activity pass over [t0,t1) on `ch` across `selected`, the prefix
  /// select() wrote for a span that contains [t0,t1) on the same channel:
  /// writes the ids of the active sources to the front of `active` in
  /// ascending order and returns how many there are; `exposure` receives
  /// their max activity (0 if none). `active` must hold selected.size() ids.
  std::size_t scan(sim::TimeUs t0, sim::TimeUs t1, Channel ch,
                   std::span<const std::size_t> selected,
                   std::span<std::size_t> active, double& exposure) const;

  /// Summed received power at `rx` from the sources in `active` (a prefix
  /// written by scan()).
  double power_mw(NodeId rx, std::span<const std::size_t> active) const {
    const std::size_t first = static_cast<std::size_t>(rx) * sources_;
    DIMMER_DEBUG_ASSERT(rx >= 0 && first + sources_ <= mw_.size(),
                        "node id out of range");
    const double* row = mw_.data() + first;
    double sum = 0.0;
    for (std::size_t s : active) sum += row[s];
    return sum;
  }

 private:
  const InterferenceField* field_;
  std::size_t sources_;
  std::vector<double> mw_;           ///< mw_[rx * sources_ + s]
  std::vector<TimeWindow> windows_;  ///< windows_[s]: active_window()
};

/// D-Cube style controlled WiFi interference profiles (§V-E): level 1 is
/// moderate AP traffic; level 2 adds APs and raises the duty cycle.
void add_dcube_wifi_level(InterferenceField& field, const Topology& topo,
                          int level, std::uint64_t seed = 0xD0CBEULL);

}  // namespace dimmer::phy
