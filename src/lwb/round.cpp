#include "lwb/round.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dimmer::lwb {

namespace {
RoundConfig validated(RoundConfig cfg) {
  DIMMER_REQUIRE(phy::is_valid_channel(cfg.control_channel),
                 "invalid control channel");
  for (phy::Channel c : cfg.hop_sequence)
    DIMMER_REQUIRE(phy::is_valid_channel(c), "invalid hopping channel");
  DIMMER_REQUIRE(cfg.max_sync_age >= 0, "max_sync_age must be >= 0");
  return cfg;
}
}  // namespace

RoundExecutor::RoundExecutor(const phy::Topology& topo,
                             const phy::InterferenceField& interference,
                             RoundConfig cfg)
    : topo_(&topo),
      cfg_(validated(std::move(cfg))),
      engine_(topo, interference) {
  ws_.reserve(topo.size(), interference.size());
}

RoundExecutor::RoundExecutor(phy::LinkModel& links,
                             const phy::InterferenceField& interference,
                             RoundConfig cfg)
    : topo_(&links.topology()),
      cfg_(validated(std::move(cfg))),
      engine_(links, interference) {
  ws_.reserve(topo_->size(), interference.size());
}

phy::Channel RoundExecutor::data_channel(std::uint64_t round_index,
                                         std::size_t slot_index) const {
  if (cfg_.hop_sequence.empty()) return cfg_.control_channel;
  return cfg_.hop_sequence[(round_index + slot_index) %
                           cfg_.hop_sequence.size()];
}

sim::TimeUs RoundExecutor::round_duration(std::size_t n_data_slots) const {
  auto slots = static_cast<sim::TimeUs>(n_data_slots + 1);
  return slots * cfg_.slot_len_us +
         static_cast<sim::TimeUs>(n_data_slots) * cfg_.slot_gap_us;
}

RoundResult RoundExecutor::run_round(sim::TimeUs start,
                                     std::uint64_t round_index,
                                     phy::NodeId coordinator,
                                     const std::vector<phy::NodeId>& data_sources,
                                     int next_n_tx,
                                     std::vector<NodeState>& states,
                                     util::Pcg32& rng,
                                     const RoundDisruptions* disruptions) const {
  RoundResult result;
  run_round_into(start, round_index, coordinator, data_sources, next_n_tx,
                 states, rng, disruptions, result);
  return result;
}

// All result buffers are assign()ed into recycled capacity (see the comment
// at the assigns); a reused RoundResult runs the round allocation-free.
// dimmer-lint: pure(may-allocate)
void RoundExecutor::run_round_into(sim::TimeUs start,
                                   std::uint64_t round_index,
                                   phy::NodeId coordinator,
                                   const std::vector<phy::NodeId>& data_sources,
                                   int next_n_tx,
                                   std::vector<NodeState>& states,
                                   util::Pcg32& rng,
                                   const RoundDisruptions* disruptions,
                                   RoundResult& result) const {
  const int n = topo_->size();
  DIMMER_REQUIRE(coordinator >= 0 && coordinator < n,
                 "coordinator out of range");
  DIMMER_REQUIRE(static_cast<int>(states.size()) == n,
                 "one NodeState per node required");
  DIMMER_REQUIRE(next_n_tx >= 0, "negative n_tx");
  DIMMER_REQUIRE(disruptions == nullptr || disruptions->deaf.empty() ||
                     static_cast<int>(disruptions->deaf.size()) == n,
                 "one deaf flag per node required");
  for (phy::NodeId s : data_sources)
    DIMMER_REQUIRE(s >= 0 && s < n, "data source out of range");

  const bool corrupted = disruptions != nullptr && disruptions->control_corrupted;
  auto deaf = [&](phy::NodeId i) {
    return disruptions != nullptr && disruptions->deaf_node(i);
  };
  // A failed coordinator makes this an *orphaned* round: no schedule flood.
  const bool coordinator_alive =
      !states[static_cast<std::size_t>(coordinator)].failed;

  // All result buffers are assign()ed, not reconstructed: with a reused
  // RoundResult the existing capacity (including each slot's FloodResult)
  // is recycled and the round runs allocation-free.
  result.radio_on_us.assign(static_cast<std::size_t>(n), 0);
  result.control_radio_on_us.assign(static_cast<std::size_t>(n), 0);
  result.awake_slots.assign(static_cast<std::size_t>(n), 0);
  result.got_control.assign(static_cast<std::size_t>(n), false);
  result.duration_us = round_duration(data_sources.size());
  // Size result.data without destroying warmed slots: a plain resize() would
  // free each trailing slot's FloodResult buffers whenever the slot count
  // dips (federated rounds see it vary with bridged traffic) and reallocate
  // them on the next growth. Excess slots park in slot_pool_ instead and
  // come back, capacity intact, when the count rises again.
  while (result.data.size() > data_sources.size()) {
    slot_pool_.push_back(std::move(result.data.back()));
    result.data.pop_back();
  }
  while (result.data.size() < data_sources.size()) {
    if (!slot_pool_.empty()) {
      result.data.push_back(std::move(slot_pool_.back()));
      slot_pool_.pop_back();
    } else {
      result.data.emplace_back();
    }
  }

  // dimmer-lint: hot-path begin — per-round flood execution; all buffers
  // recycle capacity assigned above, so steady-state rounds allocate nothing
  // (audited by tests/flood/test_workspace.cpp's 20-round operator-new count).
  // --- Control slot: everyone listens (desynced nodes are trying to
  // re-bootstrap on the control channel anyway).
  if (coordinator_alive) {
    flood::FloodParams params;
    params.channel = cfg_.control_channel;
    params.slot_start_us = start;
    params.slot_len_us = cfg_.slot_len_us;
    params.payload_bytes = cfg_.payload_bytes;
    params.tx_power_dbm = cfg_.tx_power_dbm;
    params.coherence_gain = cfg_.coherence_gain;
    params.trace_round = round_index;

    // NOLINTNEXTLINE-DIMMER(hot-no-alloc): assign() recycles capacity
    slot_cfgs_.assign(static_cast<std::size_t>(n), flood::NodeFloodConfig{});
    for (int i = 0; i < n; ++i) {
      auto& c = slot_cfgs_[static_cast<std::size_t>(i)];
      // Desynchronized nodes cannot relay (they have no slot alignment);
      // they listen only. Passive receivers do not relay either.
      bool synced = states[static_cast<std::size_t>(i)].sync_age <=
                    cfg_.max_sync_age;
      bool relay = synced && (states[static_cast<std::size_t>(i)].forwarder ||
                              i == coordinator);
      c.n_tx = relay ? states[static_cast<std::size_t>(i)].n_tx : 0;
      // Deaf nodes cannot receive, hence cannot relay either; the initiator
      // still transmits regardless (a blackout blinds receivers, not TX).
      c.participates = !states[static_cast<std::size_t>(i)].failed &&
                       (!deaf(i) || i == coordinator);
    }
    engine_.run_into(coordinator, slot_cfgs_, params, rng, ws_,
                     result.control);

    for (int i = 0; i < n; ++i) {
      auto& s = states[static_cast<std::size_t>(i)];
      if (s.failed) {
        s.sync_age += 1;  // a crashed node silently falls out of sync
        continue;
      }
      // The coordinator always has its own, locally-generated schedule; a
      // corrupt control packet is useless to everyone else even if the
      // flood physically delivered it.
      bool got = i == coordinator ||
                 (!corrupted && !deaf(i) &&
                  result.control.nodes[static_cast<std::size_t>(i)].received);
      result.got_control[static_cast<std::size_t>(i)] = got;
      if (got) {
        s.sync_age = 0;
        s.n_tx = next_n_tx;  // applied immediately after the control slot
      } else {
        s.sync_age += 1;
      }
      sim::TimeUs ctl =
          deaf(i) && i != coordinator
              ? cfg_.slot_len_us  // blind scanning, full slot
              : result.control.nodes[static_cast<std::size_t>(i)].radio_on_us;
      result.radio_on_us[static_cast<std::size_t>(i)] += ctl;
      result.control_radio_on_us[static_cast<std::size_t>(i)] = ctl;
      result.awake_slots[static_cast<std::size_t>(i)] += 1;
    }
  } else {
    // Orphaned round: the schedule flood never starts. Every alive node
    // listens the full control slot in vain and its sync age advances.
    result.control.make_silent(n, coordinator);
    for (int i = 0; i < n; ++i) {
      auto& s = states[static_cast<std::size_t>(i)];
      s.sync_age += 1;
      if (s.failed) continue;
      result.radio_on_us[static_cast<std::size_t>(i)] += cfg_.slot_len_us;
      result.control_radio_on_us[static_cast<std::size_t>(i)] =
          cfg_.slot_len_us;
      result.awake_slots[static_cast<std::size_t>(i)] += 1;
    }
  }

  // --- Data slots.
  sim::TimeUs slot_start = start + cfg_.slot_len_us + cfg_.slot_gap_us;
  for (std::size_t k = 0; k < data_sources.size(); ++k) {
    DataSlotOutcome& out = result.data[k];
    out.source = data_sources[k];
    out.channel = data_channel(round_index, k);

    auto synced = [&](phy::NodeId i) {
      const auto& st = states[static_cast<std::size_t>(i)];
      return !st.failed && st.sync_age <= cfg_.max_sync_age;
    };
    out.source_synced = synced(out.source);

    if (out.source_synced) {
      flood::FloodParams params;
      params.channel = out.channel;
      params.slot_start_us = slot_start;
      params.slot_len_us = cfg_.slot_len_us;
      params.payload_bytes = cfg_.payload_bytes;
      params.tx_power_dbm = cfg_.tx_power_dbm;
      params.coherence_gain = cfg_.coherence_gain;
      params.trace_round = round_index;

      // NOLINTNEXTLINE-DIMMER(hot-no-alloc): assign() recycles capacity
    slot_cfgs_.assign(static_cast<std::size_t>(n), flood::NodeFloodConfig{});
      for (int i = 0; i < n; ++i) {
        auto& c = slot_cfgs_[static_cast<std::size_t>(i)];
        const auto& s = states[static_cast<std::size_t>(i)];
        // A deaf node cannot receive (or relay), but a deaf *source* still
        // initiates its own slot — blackouts blind receivers, not TX.
        c.participates = synced(i) && (!deaf(i) || i == out.source);
        // Passive receivers keep n_tx = 0 except in their own slot (the
        // flood engine forces the initiator to transmit).
        c.n_tx = (s.forwarder || i == coordinator) ? s.n_tx : 0;
      }
      engine_.run_into(out.source, slot_cfgs_, params, rng, ws_, out.flood);

      for (int i = 0; i < n; ++i) {
        if (!synced(i)) continue;
        result.radio_on_us[static_cast<std::size_t>(i)] +=
            deaf(i) && i != out.source
                ? cfg_.slot_len_us  // deaf listener scans the whole slot
                : out.flood.nodes[static_cast<std::size_t>(i)].radio_on_us;
        result.awake_slots[static_cast<std::size_t>(i)] += 1;
      }
    } else {
      // Silent slot: the flood never runs — reset any reused buffer to the
      // documented "empty flood" state. Synced nodes still listen the full
      // slot for a packet that never comes (pessimistic accounting).
      out.flood.nodes.clear();
      out.flood.participated.clear();
      out.flood.steps_simulated = 0;
      out.flood.initiator = -1;
      for (int i = 0; i < n; ++i) {
        if (!synced(i)) continue;
        result.radio_on_us[static_cast<std::size_t>(i)] += cfg_.slot_len_us;
        result.awake_slots[static_cast<std::size_t>(i)] += 1;
      }
    }

    // Desynchronized nodes burn bootstrap-listening energy equivalent to the
    // slot length while scanning for a schedule. Crashed nodes are off.
    for (int i = 0; i < n; ++i) {
      const auto& st = states[static_cast<std::size_t>(i)];
      if (!st.failed && st.sync_age > cfg_.max_sync_age) {
        result.radio_on_us[static_cast<std::size_t>(i)] += cfg_.slot_len_us;
        result.awake_slots[static_cast<std::size_t>(i)] += 1;
      }
    }

    slot_start += cfg_.slot_len_us + cfg_.slot_gap_us;
  }
  // dimmer-lint: hot-path end

  if (instr_.active()) {
    int control_rx = 0, desynced = 0, silent = 0;
    for (int i = 0; i < n; ++i) {
      if (result.got_control[static_cast<std::size_t>(i)]) ++control_rx;
      const auto& st = states[static_cast<std::size_t>(i)];
      if (!st.failed && st.sync_age > cfg_.max_sync_age) ++desynced;
    }
    for (const auto& d : result.data)
      if (!d.source_synced) ++silent;
    if (instr_.metrics) {
      obs::MetricsRegistry& m = *instr_.metrics;
      m.counter("lwb.rounds") += 1;
      m.counter("lwb.data_slots") += result.data.size();
      m.counter("lwb.silent_slots") += static_cast<std::uint64_t>(silent);
      m.counter("lwb.control_receptions") +=
          static_cast<std::uint64_t>(control_rx);
      m.counter("lwb.desynced_node_rounds") +=
          static_cast<std::uint64_t>(desynced);
    }
    if (instr_.trace) {
      obs::TraceEvent e;
      e.kind = "lwb_round";
      e.round = round_index;
      e.t_us = start;
      e.node = coordinator;
      e.f("data_slots", static_cast<double>(result.data.size()))
          .f("silent_slots", silent)
          .f("control_receptions", control_rx)
          .f("desynced_nodes", desynced)
          .f("n_tx", next_n_tx)
          .f("duration_us", static_cast<double>(result.duration_us));
      instr_.trace->emit(e);
    }
  }
}

}  // namespace dimmer::lwb
