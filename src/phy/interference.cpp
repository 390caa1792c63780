#include "phy/interference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {

namespace {
/// Overlap length of [a0,a1) and [b0,b1).
sim::TimeUs overlap(sim::TimeUs a0, sim::TimeUs a1, sim::TimeUs b0,
                    sim::TimeUs b1) {
  sim::TimeUs lo = std::max(a0, b0);
  sim::TimeUs hi = std::min(a1, b1);
  return hi > lo ? hi - lo : 0;
}

/// Clip [t0,t1) to a scenario window [start, stop); stop < 0 means open.
bool clip_window(sim::TimeUs& t0, sim::TimeUs& t1, sim::TimeUs start,
                 sim::TimeUs stop) {
  t0 = std::max(t0, start);
  if (stop >= 0) t1 = std::min(t1, stop);
  return t1 > t0;
}

/// The scenario window clip_window() clips to, as a TimeWindow.
TimeWindow scenario_window(sim::TimeUs start, sim::TimeUs stop) {
  return {start, stop >= 0 ? stop : std::numeric_limits<sim::TimeUs>::max()};
}

/// The placement every source constructor checks: a NaN power or position
/// would make every sample() read power_mw = NaN.
void require_finite_placement(Vec2 position, double tx_power_dbm) {
  DIMMER_REQUIRE(std::isfinite(tx_power_dbm),
                 "interference tx_power_dbm must be finite");
  DIMMER_REQUIRE(std::isfinite(position.x) && std::isfinite(position.y),
                 "interference source position must be finite");
}

/// Received power of `src` at node `rx`, in mW: the one expression behind
/// both sample() and the BoundInterference table, so the two agree bitwise.
double received_mw(const InterferenceSource& src, NodeId rx,
                   const Topology& topo) {
  return dbm_to_mw(src.tx_power_dbm() +
                   topo.gain_from_point_db(src.position(), rx,
                                           src.shadow_tag()));
}
}  // namespace

// ---- BurstJammer -----------------------------------------------------------

BurstJammer::BurstJammer(Config cfg) : cfg_(std::move(cfg)) {
  require_finite_placement(cfg_.position, cfg_.tx_power_dbm);
  DIMMER_REQUIRE(cfg_.burst_us > 0, "burst length must be positive");
  DIMMER_REQUIRE(cfg_.period_us >= cfg_.burst_us,
                 "period must be >= burst length");
  for (Channel c : cfg_.channels)
    DIMMER_REQUIRE(is_valid_channel(c), "invalid 802.15.4 channel");
}

BurstJammer::Config BurstJammer::jamlab(Vec2 pos, double duty, Channel ch,
                                        std::uint64_t tag) {
  DIMMER_REQUIRE(duty > 0.0 && duty <= 1.0, "duty out of (0,1]");
  Config cfg;
  cfg.position = pos;
  cfg.burst_us = sim::ms(13);
  cfg.period_us = static_cast<sim::TimeUs>(
      std::llround(static_cast<double>(cfg.burst_us) / duty));
  cfg.channels = {ch};
  cfg.tag = tag;
  return cfg;
}

double BurstJammer::activity(sim::TimeUs t0, sim::TimeUs t1,
                             Channel ch) const {
  DIMMER_REQUIRE(t1 > t0, "empty interval");
  if (std::find(cfg_.channels.begin(), cfg_.channels.end(), ch) ==
      cfg_.channels.end())
    return 0.0;
  sim::TimeUs len = t1 - t0;
  sim::TimeUs w0 = t0, w1 = t1;
  if (!clip_window(w0, w1, cfg_.start_us, cfg_.stop_us)) return 0.0;

  // Sum overlap with every burst the window can touch.
  sim::TimeUs rel0 = w0 - cfg_.phase_us;
  std::int64_t first = rel0 >= 0 ? rel0 / cfg_.period_us
                                 : -((-rel0 + cfg_.period_us - 1) / cfg_.period_us);
  sim::TimeUs occupied = 0;
  for (std::int64_t k = first;; ++k) {
    sim::TimeUs b0 = cfg_.phase_us + k * cfg_.period_us;
    if (b0 >= w1) break;
    occupied += overlap(w0, w1, b0, b0 + cfg_.burst_us);
  }
  return static_cast<double>(occupied) / static_cast<double>(len);
}

TimeWindow BurstJammer::active_window() const {
  return scenario_window(cfg_.start_us, cfg_.stop_us);
}

// ---- WifiInterferer --------------------------------------------------------

WifiInterferer::WifiInterferer(Config cfg) : cfg_(std::move(cfg)) {
  require_finite_placement(cfg_.position, cfg_.tx_power_dbm);
  DIMMER_REQUIRE(cfg_.duty >= 0.0 && cfg_.duty <= 0.95,
                 "WiFi duty out of [0,0.95]");
  DIMMER_REQUIRE(cfg_.frame_us > 0, "frame must be positive");
  covered_ = channels_under_wifi(cfg_.wifi_channel);
}

bool WifiInterferer::covers(Channel ch) const {
  return std::find(covered_.begin(), covered_.end(), ch) != covered_.end();
}

double WifiInterferer::frame_overlap(sim::TimeUs t0, sim::TimeUs t1,
                                     std::int64_t frame_idx) const {
  sim::TimeUs fstart = frame_idx * cfg_.frame_us;
  // Hash-randomised burst: length ~ duty*frame +/- 50%, offset uniform.
  std::uint64_t h =
      util::hash_u64(cfg_.seed, static_cast<std::uint64_t>(frame_idx));
  double len_frac =
      cfg_.duty * (0.5 + util::pure_uniform(h));  // in [0.5,1.5]*duty
  len_frac = std::min(len_frac, 0.98);
  auto blen = static_cast<sim::TimeUs>(
      len_frac * static_cast<double>(cfg_.frame_us));
  if (blen <= 0) return 0.0;
  auto max_off = static_cast<double>(cfg_.frame_us - blen);
  auto off = static_cast<sim::TimeUs>(
      util::pure_uniform(util::splitmix64(h ^ 0x0ff5e7ULL)) * max_off);
  return static_cast<double>(
      overlap(t0, t1, fstart + off, fstart + off + blen));
}

double WifiInterferer::activity(sim::TimeUs t0, sim::TimeUs t1,
                                Channel ch) const {
  DIMMER_REQUIRE(t1 > t0, "empty interval");
  if (!covers(ch)) return 0.0;
  sim::TimeUs len = t1 - t0;
  sim::TimeUs w0 = t0, w1 = t1;
  if (!clip_window(w0, w1, cfg_.start_us, cfg_.stop_us)) return 0.0;

  std::int64_t f0 = w0 / cfg_.frame_us;
  std::int64_t f1 = (w1 - 1) / cfg_.frame_us;
  double occupied = 0.0;
  for (std::int64_t frame = f0; frame <= f1; ++frame)
    occupied += frame_overlap(w0, w1, frame);
  return occupied / static_cast<double>(len);
}

TimeWindow WifiInterferer::active_window() const {
  return scenario_window(cfg_.start_us, cfg_.stop_us);
}

// ---- AmbientInterferer -----------------------------------------------------

AmbientInterferer::AmbientInterferer(Config cfg) : cfg_(std::move(cfg)) {
  require_finite_placement(cfg_.position, cfg_.tx_power_dbm);
  DIMMER_REQUIRE(cfg_.frame_us > 0, "frame must be positive");
  DIMMER_REQUIRE(cfg_.day_duty >= 0.0 && cfg_.day_duty <= 0.5,
                 "ambient day duty out of [0,0.5]");
  DIMMER_REQUIRE(cfg_.night_duty >= 0.0 && cfg_.night_duty <= 0.5,
                 "ambient night duty out of [0,0.5]");
  // A zero fraction never bursts; one above 1 makes the burst longer than
  // the frame and its offset negative.
  DIMMER_REQUIRE(cfg_.burst_fraction > 0.0 && cfg_.burst_fraction <= 1.0,
                 "ambient burst_fraction out of (0,1]");
}

double AmbientInterferer::duty_at(sim::TimeUs t) const {
  double hour = std::fmod(sim::to_seconds(t) / 3600.0, 24.0);
  bool day = hour >= cfg_.day_start_h && hour < cfg_.day_end_h;
  return day ? cfg_.day_duty : cfg_.night_duty;
}

double AmbientInterferer::activity(sim::TimeUs t0, sim::TimeUs t1,
                                   Channel ch) const {
  DIMMER_REQUIRE(t1 > t0, "empty interval");
  sim::TimeUs len = t1 - t0;
  std::int64_t f0 = t0 / cfg_.frame_us;
  std::int64_t f1 = (t1 - 1) / cfg_.frame_us;
  double occupied = 0.0;
  for (std::int64_t frame = f0; frame <= f1; ++frame) {
    sim::TimeUs fstart = frame * cfg_.frame_us;
    double duty = duty_at(fstart);
    std::uint64_t h =
        util::hash_u64(cfg_.seed, static_cast<std::uint64_t>(frame),
                       static_cast<std::uint64_t>(ch));
    // In each frame the channel carries one short burst with probability
    // duty / burst_fraction, preserving the mean occupancy `duty`.
    if (util::pure_uniform(h) >= duty / cfg_.burst_fraction) continue;
    auto blen = static_cast<sim::TimeUs>(
        cfg_.burst_fraction * static_cast<double>(cfg_.frame_us));
    auto off = static_cast<sim::TimeUs>(
        util::pure_uniform(util::splitmix64(h ^ 0xa3b1e7ULL)) *
        static_cast<double>(cfg_.frame_us - blen));
    occupied += static_cast<double>(
        overlap(t0, t1, fstart + off, fstart + off + blen));
  }
  return std::min(1.0, occupied / static_cast<double>(len));
}

// ---- InterferenceField -----------------------------------------------------

void InterferenceField::add(std::unique_ptr<InterferenceSource> src) {
  DIMMER_REQUIRE(src != nullptr, "null interference source");
  sources_.push_back(std::move(src));
}

InterferenceSample InterferenceField::sample(sim::TimeUs t0, sim::TimeUs t1,
                                             Channel ch, NodeId rx,
                                             const Topology& topo) const {
  InterferenceSample out;
  for (const auto& src : sources_) {
    double act = src->activity(t0, t1, ch);
    if (act <= 0.0) continue;
    out.power_mw += received_mw(*src, rx, topo);
    out.exposure = std::max(out.exposure, act);
  }
  return out;
}

// ---- BoundInterference -----------------------------------------------------

BoundInterference::BoundInterference(const InterferenceField& field,
                                     const Topology& topo)
    : field_(&field), sources_(field.size()) {
  mw_.reserve(static_cast<std::size_t>(topo.size()) * sources_);
  for (NodeId rx = 0; rx < topo.size(); ++rx)
    for (std::size_t s = 0; s < sources_; ++s)
      mw_.push_back(received_mw(field.source(s), rx, topo));
  windows_.reserve(sources_);
  for (std::size_t s = 0; s < sources_; ++s)
    windows_.push_back(field.source(s).active_window());
}

void BoundInterference::require_unchanged() const {
  DIMMER_REQUIRE(field_->size() == sources_,
                 "interference field changed after an engine bound it");
}

std::size_t BoundInterference::select(sim::TimeUs t0, sim::TimeUs t1,
                                      Channel ch,
                                      std::span<std::size_t> selected) const {
  DIMMER_DEBUG_ASSERT(selected.size() >= sources_, "selection too short");
  std::size_t count = 0;
  for (std::size_t s = 0; s < sources_; ++s) {
    // Contract 1: a window the span misses reads 0.0; contract 2: a source
    // silent over the span is silent at each of its steps.
    if (!windows_[s].meets(t0, t1)) continue;
    if (field_->source(s).activity(t0, t1, ch) <= 0.0) continue;
    selected[count++] = s;
  }
  return count;
}

std::size_t BoundInterference::scan(sim::TimeUs t0, sim::TimeUs t1,
                                    Channel ch,
                                    std::span<const std::size_t> selected,
                                    std::span<std::size_t> active,
                                    double& exposure) const {
  DIMMER_DEBUG_ASSERT(active.size() >= selected.size(),
                      "active list too short");
  std::size_t count = 0;
  exposure = 0.0;
  for (std::size_t s : selected) {
    const double act = field_->source(s).activity(t0, t1, ch);
    if (act <= 0.0) continue;
    active[count++] = s;
    exposure = std::max(exposure, act);
  }
  return count;
}

// ---- D-Cube profiles -------------------------------------------------------

void add_dcube_wifi_level(InterferenceField& field, const Topology& topo,
                          int level, std::uint64_t seed) {
  DIMMER_REQUIRE(level == 1 || level == 2, "D-Cube WiFi level is 1 or 2");
  // APs placed across the deployment area. Level 1: three APs at moderate
  // duty leaving parts of the band free; level 2: eight APs, higher duty,
  // covering the whole band including channel 26.
  double minx = 1e9, maxx = -1e9, miny = 1e9, maxy = -1e9;
  for (int n = 0; n < topo.size(); ++n) {
    Vec2 p = topo.position(n);
    minx = std::min(minx, p.x);
    maxx = std::max(maxx, p.x);
    miny = std::min(miny, p.y);
    maxy = std::max(maxy, p.y);
  }
  auto at = [&](double fx, double fy) {
    return Vec2{minx + fx * (maxx - minx), miny + fy * (maxy - miny)};
  };
  struct Ap {
    Vec2 pos;
    int wifi_channel;
  };
  // WiFi channels 3 / 8 / 13 blanket the 802.15.4 band in three stripes
  // (11-15, 16-20, 23-26); D-Cube's controlled interference leaves no
  // escape channel, only temporal gaps.
  std::vector<Ap> aps;
  if (level == 1) {
    aps = {{at(0.2, 0.3), 3}, {at(0.55, 0.7), 8}, {at(0.65, 0.35), 13}};
  } else {
    aps = {{at(0.15, 0.25), 3},
           {at(0.4, 0.8), 8},
           {at(0.6, 0.2), 13},
           {at(0.85, 0.7), 3},
           {at(0.05, 0.5), 13},   // one AP sits near the coordinator
           {at(0.35, 0.45), 13},  // and the band edge is hit twice more
           {at(0.7, 0.6), 13},
           {at(0.5, 0.5), 8}};
  }
  double duty = level == 1 ? 0.35 : 0.85;
  std::uint64_t tag = 0x0DCBE000ULL + static_cast<std::uint64_t>(level) * 16;
  for (std::size_t i = 0; i < aps.size(); ++i) {
    WifiInterferer::Config cfg;
    cfg.position = aps[i].pos;
    cfg.wifi_channel = aps[i].wifi_channel;
    cfg.duty = duty;
    cfg.tx_power_dbm = level == 1 ? 10.0 : 15.0;
    // Level 2 emits longer contiguous bursts: fewer within-slot gaps.
    cfg.frame_us = level == 1 ? sim::ms(40) : sim::ms(100);
    cfg.seed = util::hash_u64(seed, i);
    cfg.tag = tag + i;
    field.add(std::make_unique<WifiInterferer>(cfg));
  }
}

}  // namespace dimmer::phy
