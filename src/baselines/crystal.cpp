#include "baselines/crystal.hpp"

#include <algorithm>
#include <cmath>

#include "phy/propagation.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace dimmer::baselines {

CrystalNetwork::CrystalNetwork(const phy::Topology& topo,
                               const phy::InterferenceField& interference,
                               Config cfg, phy::NodeId sink,
                               std::uint64_t seed)
    : topo_(&topo),
      interf_(&interference),
      cfg_(std::move(cfg)),
      sink_(sink),
      rng_(seed),
      engine_(topo, interference),
      all_relay_(static_cast<std::size_t>(topo.size()),
                 flood::NodeFloodConfig{cfg_.n_tx, true}) {
  DIMMER_REQUIRE(sink >= 0 && sink < topo.size(), "sink out of range");
  DIMMER_REQUIRE(!cfg_.hop_sequence.empty(), "hopping sequence required");
  DIMMER_REQUIRE(cfg_.max_silent_pairs >= 1, "max_silent_pairs must be >= 1");
  DIMMER_REQUIRE(cfg_.max_pairs >= 1, "max_pairs must be >= 1");
  // A zero period never advances time (run_crystal_collection would spin
  // forever); a NaN threshold or a negative extension silently disables
  // the extra pairs noise should trigger.
  DIMMER_REQUIRE(cfg_.epoch_period > 0, "epoch_period must be positive");
  DIMMER_REQUIRE(std::isfinite(cfg_.noise_threshold_dbm),
                 "noise_threshold_dbm must be finite");
  DIMMER_REQUIRE(cfg_.extra_pairs_on_noise >= 0,
                 "extra_pairs_on_noise must be >= 0");
  ws_.reserve(topo.size(), interference.size());
}

void CrystalNetwork::offer_packet(phy::NodeId source) {
  DIMMER_REQUIRE(source >= 0 && source < topo_->size(), "source out of range");
  DIMMER_REQUIRE(source != sink_, "the sink does not source packets");
  queue_.push_back(Pending{source});
}

int CrystalNetwork::pending_packets() const {
  return static_cast<int>(queue_.size());
}

CrystalNetwork::EpochStats CrystalNetwork::run_epoch() {
  const int n = topo_->size();
  EpochStats stats;

  std::vector<sim::TimeUs> radio(static_cast<std::size_t>(n), 0);
  int slots_run = 0;
  sim::TimeUs t = time_;

  // Floods reuse the persistent engine plus caller-owned workspace/result
  // buffers, so steady-state epochs run without flood-path allocations.
  // dimmer-lint: hot-path begin — every S/T/A slot funnels through here.
  auto run_flood = [&](phy::NodeId initiator, int bytes, phy::Channel ch,
                       flood::FloodResult& r) {
    flood::FloodParams params;
    params.channel = ch;
    params.slot_start_us = t;
    params.slot_len_us = cfg_.slot_len_us;
    params.payload_bytes = bytes;
    params.tx_power_dbm = cfg_.tx_power_dbm;
    params.coherence_gain = cfg_.coherence_gain;
    engine_.run_into(initiator, all_relay_, params, rng_, ws_, r);
    for (int i = 0; i < n; ++i)
      radio[static_cast<std::size_t>(i)] +=
          r.nodes[static_cast<std::size_t>(i)].radio_on_us;
    ++slots_run;
    t += cfg_.slot_len_us;
  };
  // dimmer-lint: hot-path end

  // --- S slot: sink-initiated synchronization flood on the first hop
  // channel. Nodes that miss it sit the epoch out (rare; counted as energy).
  phy::Channel s_ch = cfg_.hop_sequence[epoch_idx_ % cfg_.hop_sequence.size()];
  run_flood(sink_, cfg_.sync_bytes, s_ch, sync_buf_);
  const flood::FloodResult& sync = sync_buf_;
  std::vector<bool> in_epoch(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i)
    in_epoch[static_cast<std::size_t>(i)] =
        i == sink_ || sync.nodes[static_cast<std::size_t>(i)].received;

  // --- TA pairs.
  int silent = 0;
  int extra_budget = 0;
  for (int pair = 0; pair < cfg_.max_pairs; ++pair) {
    phy::Channel ch = cfg_.hop_sequence[(epoch_idx_ + pair + 1) %
                                        cfg_.hop_sequence.size()];

    // Contenders: queued packets whose source heard the sync flood.
    std::vector<std::size_t> contenders;
    for (std::size_t q = 0; q < queue_.size(); ++q)
      if (in_epoch[static_cast<std::size_t>(queue_[q].source)])
        contenders.push_back(q);

    bool sink_got = false;
    std::size_t won_index = 0;
    if (!contenders.empty()) {
      // Capture effect: the strongest source at the sink wins the T slot.
      std::size_t win = contenders[0];
      double best = -1e18;
      for (std::size_t q : contenders) {
        double p = topo_->rx_power_dbm(queue_[q].source, sink_,
                                       cfg_.tx_power_dbm);
        if (p > best) {
          best = p;
          win = q;
        }
      }
      run_flood(queue_[win].source, cfg_.payload_bytes, ch, tx_buf_);
      sink_got = tx_buf_.nodes[static_cast<std::size_t>(sink_)].received;
      won_index = win;
    } else {
      // Silent T slot: everyone performs a short listen (clear-channel
      // assessment timeout) instead of a full slot.
      sim::TimeUs listen = cfg_.slot_len_us / 4;
      for (int i = 0; i < n; ++i)
        if (in_epoch[static_cast<std::size_t>(i)])
          radio[static_cast<std::size_t>(i)] += listen;
      ++slots_run;
      t += cfg_.slot_len_us;
    }

    // --- A slot: sink acknowledges (or stays silent on a miss).
    if (sink_got) {
      run_flood(sink_, cfg_.ack_bytes, ch, ack_buf_);
      const flood::FloodResult& ack = ack_buf_;
      // Duplicate suppression by sequence number: count a packet once even
      // if the source retries because it missed the ACK.
      if (!queue_[won_index].counted) {
        stats.delivered += 1;
        queue_[won_index].counted = true;
      }
      bool src_heard_ack =
          ack.nodes[static_cast<std::size_t>(queue_[won_index].source)]
              .received;
      if (src_heard_ack) {
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(won_index));
      }
      silent = 0;
    } else {
      sim::TimeUs listen = cfg_.slot_len_us / 4;
      for (int i = 0; i < n; ++i)
        if (in_epoch[static_cast<std::size_t>(i)])
          radio[static_cast<std::size_t>(i)] += listen;
      ++slots_run;
      t += cfg_.slot_len_us;
      ++silent;
    }
    stats.pairs_executed += 1;

    // Termination with noise detection: sample the channel at the sink.
    if (silent >= cfg_.max_silent_pairs) {
      phy::InterferenceSample noise = interf_->sample(
          t, t + sim::ms(1), ch, sink_, *topo_);
      bool noisy = noise.exposure > 0.0 &&
                   phy::mw_to_dbm(noise.power_mw) > cfg_.noise_threshold_dbm;
      if (noisy && extra_budget < cfg_.extra_pairs_on_noise * 4) {
        stats.noise_detected = true;
        silent = 0;  // "additional TA pairs before turning off the radio"
        extra_budget += cfg_.extra_pairs_on_noise;
      } else {
        break;
      }
    }
  }

  stats.pending_after = static_cast<int>(queue_.size());

  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    acc += sim::to_ms(radio[static_cast<std::size_t>(i)]) /
           std::max(1, slots_run);
    stats.total_radio_on_us += radio[static_cast<std::size_t>(i)];
  }
  stats.radio_on_ms = acc / n;

  time_ += cfg_.epoch_period;
  ++epoch_idx_;
  return stats;
}

CrystalCollectionResult run_crystal_collection(CrystalNetwork& net,
                                               int n_sources,
                                               sim::TimeUs mean_interarrival,
                                               sim::TimeUs duration,
                                               std::uint64_t seed) {
  DIMMER_REQUIRE(n_sources >= 1, "need at least one source");
  DIMMER_REQUIRE(mean_interarrival > 0 && duration > 0,
                 "timings must be positive");
  const int n = net.topology().size();
  std::vector<phy::NodeId> sources;
  for (phy::NodeId i = 0; i < n &&
                          static_cast<int>(sources.size()) < n_sources;
       ++i) {
    if (i == net.sink()) continue;
    sources.push_back(i);
  }
  DIMMER_REQUIRE(static_cast<int>(sources.size()) == n_sources,
                 "could not pick enough sources");

  util::Pcg32 rng(util::hash_u64(seed, 0xC2F57A1ULL));
  auto exponential = [&rng](double mean) {
    double u = rng.uniform();
    if (u < 1e-12) u = 1e-12;
    return -mean * std::log(u);
  };

  std::vector<sim::TimeUs> next_arrival(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i)
    next_arrival[i] = net.now() + static_cast<sim::TimeUs>(exponential(
                                      static_cast<double>(mean_interarrival)));

  CrystalCollectionResult result;
  util::RunningStats radio;
  sim::TimeUs total_radio = 0;
  const sim::TimeUs t_end = net.now() + duration;
  while (net.now() < t_end) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      while (next_arrival[i] <= net.now()) {
        net.offer_packet(sources[i]);
        ++result.sent;
        next_arrival[i] += static_cast<sim::TimeUs>(exponential(
            static_cast<double>(mean_interarrival)));
      }
    }
    CrystalNetwork::EpochStats es = net.run_epoch();
    result.delivered += es.delivered;
    radio.add(es.radio_on_ms);
    total_radio += es.total_radio_on_us;
    ++result.epochs;
  }
  result.reliability = result.sent > 0
                           ? static_cast<double>(result.delivered) /
                                 static_cast<double>(result.sent)
                           : 1.0;
  result.radio_on_ms = radio.mean();
  if (result.epochs > 0)
    result.radio_duty =
        static_cast<double>(total_radio) /
        (static_cast<double>(n) * static_cast<double>(result.epochs) *
         static_cast<double>(net.config().epoch_period));
  return result;
}

}  // namespace dimmer::baselines
