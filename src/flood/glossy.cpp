#include "flood/glossy.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "phy/propagation.hpp"
#include "phy/reception.hpp"
#include "phy/sparse_link_model.hpp"
#include "util/check.hpp"

namespace dimmer::flood {

FloodResult::Summary FloodResult::summarize() const {
  Summary s;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!participated[i]) continue;
    const NodeFloodResult& r = nodes[i];
    s.transmissions += r.transmissions;
    s.radio_on_us += r.radio_on_us;
    if (static_cast<phy::NodeId>(i) == initiator) continue;
    ++s.participants;
    if (r.received) ++s.receivers;
  }
  return s;
}

double FloodResult::delivery_ratio() const {
  Summary s = summarize();
  if (s.participants == 0) return 1.0;
  return static_cast<double>(s.receivers) / s.participants;
}

// Capacity-recycling assign(): zero steady-state allocations, audited by the
// allocation-counting test (tests/flood/test_workspace.cpp).
// dimmer-lint: pure(may-allocate)
void FloodResult::make_silent(int n_nodes, phy::NodeId init) {
  nodes.assign(static_cast<std::size_t>(n_nodes), NodeFloodResult{});
  participated.assign(static_cast<std::size_t>(n_nodes), false);
  steps_simulated = 0;
  initiator = init;
}

FloodResult FloodResult::silent(int n_nodes, phy::NodeId initiator) {
  FloodResult r;
  r.make_silent(n_nodes, initiator);
  return r;
}

GlossyFlood::GlossyFlood(const phy::Topology& topo,
                         const phy::InterferenceField& interf)
    : owned_links_(std::make_unique<phy::SparseLinkModel>(topo)),
      links_(owned_links_.get()),
      interf_(interf, topo) {}

GlossyFlood::GlossyFlood(phy::LinkModel& links,
                         const phy::InterferenceField& interf)
    : links_(&links), interf_(interf, links.topology()) {}

sim::TimeUs GlossyFlood::step_len_us(const FloodParams& p,
                                     const phy::RadioConstants& radio) {
  return static_cast<sim::TimeUs>(
             std::llround(radio.airtime_us(p.payload_bytes))) +
         p.processing_us;
}

int GlossyFlood::max_steps(const FloodParams& p,
                           const phy::RadioConstants& radio) {
  sim::TimeUs step = step_len_us(p, radio);
  DIMMER_REQUIRE(step > 0 && p.slot_len_us >= step,
                 "slot too short for even one frame");
  // The quotient is 64-bit; truncating it straight through static_cast<int>
  // used to wrap a pathological slot_len_us (fuzzed/hand-edited scenarios)
  // into a tiny or negative step count, silently simulating the wrong slot.
  const sim::TimeUs q = p.slot_len_us / step;
  DIMMER_REQUIRE(q <= kMaxFloodSteps,
                 "slot_len_us/step exceeds kMaxFloodSteps");
  return static_cast<int>(q);
}

FloodResult GlossyFlood::run(phy::NodeId initiator,
                             const std::vector<NodeFloodConfig>& configs,
                             const FloodParams& params,
                             util::Pcg32& rng) const {
  FloodWorkspace ws;
  FloodResult out;
  run_into(initiator, configs, params, rng, ws, out);
  return out;
}

// The prolog assign()/resize() calls recycle workspace capacity before the
// hot region starts; the steady state allocates nothing, enforced dynamically
// by tests/flood/test_workspace.cpp.
// dimmer-lint: pure(may-allocate)
void GlossyFlood::run_into(phy::NodeId initiator,
                           const std::vector<NodeFloodConfig>& configs,
                           const FloodParams& params, util::Pcg32& rng,
                           FloodWorkspace& ws, FloodResult& out) const {
  const phy::Topology& topo = links_->topology();
  const int n = topo.size();
  // Full argument validation happens here, once per flood; the per-link
  // lookups inside the loop index the precomputed rows with ids generated
  // below, so they carry debug-only assertions (see util/check.hpp).
  DIMMER_REQUIRE(initiator >= 0 && initiator < n, "initiator out of range");
  DIMMER_REQUIRE(static_cast<int>(configs.size()) == n,
                 "one NodeFloodConfig per node required");
  DIMMER_REQUIRE(configs[static_cast<std::size_t>(initiator)].participates,
                 "initiator must participate");
  DIMMER_REQUIRE(phy::is_valid_channel(params.channel), "invalid channel");
  // Non-finite powers would defeat the LinkModel's != cache check (NaN
  // rebuilds every flood) and poison SINR/PER; non-positive payloads make
  // airtime/steps meaningless. Reject both up front.
  DIMMER_REQUIRE(std::isfinite(params.tx_power_dbm),
                 "tx_power_dbm must be finite");
  DIMMER_REQUIRE(params.payload_bytes > 0, "payload_bytes must be positive");
  // A NaN gain makes every signal NaN, which mw_to_dbm reads as -300 dBm:
  // the flood silently reaches nobody.
  DIMMER_REQUIRE(params.coherence_gain >= 0.0 && params.coherence_gain <= 1.0,
                 "coherence_gain must be in [0, 1]");
  for (const auto& c : configs)
    DIMMER_REQUIRE(c.n_tx >= 0, "negative n_tx");
  // The interference table is a snapshot of the field taken at binding.
  interf_.require_unchanged();

  const phy::RadioConstants& radio = topo.radio();
  const sim::TimeUs step_len = step_len_us(params, radio);
  const int steps = max_steps(params, radio);
  const int frame_bytes = params.payload_bytes + radio.phy_overhead_bytes;
  const double noise_mw = phy::dbm_to_mw(radio.noise_floor_dbm);
  // Loop invariants, hoisted: each is the exact expression the step loop
  // historically evaluated per reception, so the bits are unchanged.
  const double noise_dbm = phy::mw_to_dbm(noise_mw);
  const double fading_sigma = topo.path_loss().fading_sigma_db;
  const auto airtime_us =
      static_cast<sim::TimeUs>(std::llround(radio.airtime_us(params.payload_bytes)));
  const phy::Reception reception(params.coherence_gain, fading_sigma > 0.0,
                                 noise_mw, noise_dbm, frame_bytes);

  // Linear-domain link powers for this flood's TX power as CSR rows; cached
  // across floods by the LinkModel (recomputed only when the power changes).
  const phy::SparseLinkView& links = links_->prepare(params.tx_power_dbm);

  // Per-node dynamic state, in caller-owned scratch.
  const auto un = static_cast<std::size_t>(n);
  ws.state.assign(un, FloodWorkspace::NodeScratch{});
  ws.is_tx.assign(un, 0);
  ws.budget.resize(un);
  ws.total_mw.resize(un);
  ws.strongest_mw.resize(un);
  ws.transmitters.clear();
  ws.transmitters.reserve(un);
  ws.active_sources.resize(interf_.source_count());

  out.nodes.assign(un, NodeFloodResult{});
  out.participated.assign(un, false);
  out.steps_simulated = 0;
  out.initiator = initiator;

  for (int i = 0; i < n; ++i) {
    const auto& cfg = configs[static_cast<std::size_t>(i)];
    out.participated[static_cast<std::size_t>(i)] = cfg.participates;
    if (!cfg.participates) ws.state[static_cast<std::size_t>(i)].finished = true;
    // The initiator sources the packet: it transmits at least once even if
    // its own budget says 0 (a passive role never applies to one's own slot).
    ws.budget[static_cast<std::size_t>(i)] =
        i == initiator ? std::max(1, cfg.n_tx) : cfg.n_tx;
  }
  {
    auto& init = ws.state[static_cast<std::size_t>(initiator)];
    init.has_packet = true;
    init.first_step = -1;  // transmits at even steps 0, 2, 4, ...
  }

  // Observability accumulators; only touched when a sink is attached.
  const bool observed = instr_.active();
  double exposure_sum = 0.0;
  std::uint64_t exposure_n = 0;

  // dimmer-lint: hot-path begin — the zero-allocation flood step loop; the
  // operator-new audit in tests/flood/test_workspace.cpp enforces the same
  // contract at runtime.
  for (int t = 0; t < steps; ++t) {
    // 1. Who transmits at this step? Alternation: a node first involved at
    //    step f transmits at f+1, f+3, ... while budget remains.
    ws.transmitters.clear();
    for (phy::NodeId i = 0; i < n; ++i) {
      FloodWorkspace::NodeScratch& s = ws.state[static_cast<std::size_t>(i)];
      if (s.finished || !s.has_packet) continue;
      if ((t - s.first_step) % 2 == 1 &&
          s.tx_done < ws.budget[static_cast<std::size_t>(i)]) {
        // NOLINTNEXTLINE-DIMMER(hot-no-alloc): capacity reserved per flood
        ws.transmitters.push_back(i);
        ws.is_tx[static_cast<std::size_t>(i)] = 1;
      }
    }
    const bool any_tx = !ws.transmitters.empty();

    // 2. Early exit: nobody transmits now, and nobody ever will again.
    if (!any_tx) {
      bool future_tx = false;
      for (phy::NodeId i = 0; i < n && !future_tx; ++i) {
        const FloodWorkspace::NodeScratch& s =
            ws.state[static_cast<std::size_t>(i)];
        future_tx = !s.finished && s.has_packet &&
                    s.tx_done < ws.budget[static_cast<std::size_t>(i)];
      }
      if (!future_tx) {
        out.steps_simulated = t;
        break;
      }
    }

    const sim::TimeUs t0 = params.slot_start_us + t * step_len;
    const sim::TimeUs t1 = t0 + airtime_us;

    // 3a. Concurrent powers at every node: one pass over each
    //     transmitter's CSR row, transmitters ascending, listeners ascending
    //     within a row — so every listener accumulates its transmitters in
    //     the same ascending order as the historical per-listener loop, and
    //     the floating-point sums are bit-identical (DESIGN.md §10).
    if (any_tx) {
      std::fill(ws.total_mw.begin(), ws.total_mw.end(), 0.0);
      std::fill(ws.strongest_mw.begin(), ws.strongest_mw.end(), 0.0);
      double* total = ws.total_mw.data();
      double* strongest = ws.strongest_mw.data();
      for (phy::NodeId tx : ws.transmitters) {
        const std::size_t begin = links.row_begin(tx);
        const std::size_t end = links.row_end(tx);
        if (end - begin == un) {
          // A full row: columns are strictly ascending in [0, n), so
          // col[k] == k and the row is a contiguous mW array. The plain
          // loop performs the scatter's IEEE add and max on the same
          // values in the same order, so the sums are bit-identical; it
          // skips the column loads (DESIGN.md §12).
          const double* row = links.mw + begin;
          for (int i = 0; i < n; ++i) {
            const double p_mw = row[i];
            total[i] += p_mw;
            strongest[i] = std::max(strongest[i], p_mw);
          }
        } else {
          // A partial row (links the Topology does not store): scatter.
          for (std::size_t k = begin; k < end; ++k) {
            const double p_mw = links.mw[k];
            const auto rx = static_cast<std::size_t>(links.col[k]);
            total[rx] += p_mw;
            strongest[rx] = std::max(strongest[rx], p_mw);
          }
        }
      }
    }

    // 3b. Receptions, one awake listener at a time, ascending: each draws
    //     its fading normal, then its Bernoulli uniform (the historical
    //     per-listener order), and is decided at once by
    //     phy::Reception::success, which settles it from bounded-error SINRs
    //     with the decision the exact chain would take (DESIGN.md §12).
    //     rng.bernoulli(p) is exactly uniform() < p, so drawing the uniform
    //     first leaves the stream and the decisions bit-identical. No
    //     listener reads another's state, so deciding in place changes
    //     nothing later in the step.
    //     Interference: the step's first listener runs the one activity
    //     pass (no listener, no activity() call, as with per-listener
    //     sampling); every listener then sums its table row over the active
    //     sources, bit-identical to InterferenceField::sample (DESIGN.md
    //     §10, "Interference binding").
    bool scanned = false;
    std::size_t n_active = 0;
    double exposure = 0.0;
    for (phy::NodeId i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      FloodWorkspace::NodeScratch& s = ws.state[ui];
      if (s.finished) continue;
      s.radio_on += step_len;  // TX or RX, the radio is on this step
      if (ws.is_tx[ui] || !any_tx) continue;
      if (s.has_packet) continue;  // re-receptions only maintain sync
      // A listener no stored link reaches sees exactly zero concurrent
      // power, so its success probability is < 1e-86 — reachable only by a
      // uniform() draw of exactly 0.0 (p = 2^-53). Skipping it before the
      // interference sample and both RNG draws is what makes the step cost
      // scale with the flood frontier instead of N. A view that does not
      // ask for the skip gets the draws the direct-Topology loop makes, so
      // the RNG stream stays bit-identical to it.
      if (links.skip_unreached && ws.strongest_mw[ui] == 0.0) continue;

      // Per-reception block fading at the listener.
      const double fade_db =
          fading_sigma > 0.0 ? rng.normal(0.0, fading_sigma) : 0.0;
      if (!scanned) {
        n_active = interf_.scan(t0, t1, params.channel, ws.active_sources,
                                exposure);
        scanned = true;
      }
      if (observed) {
        exposure_sum += exposure;
        ++exposure_n;
      }
      const double interf_mw = interf_.power_mw(
          i, std::span(ws.active_sources).first(n_active));
      const double u = rng.uniform();  // the Bernoulli draw
      const phy::Reception::Decision d =
          reception.success(ws.strongest_mw[ui], ws.total_mw[ui], fade_db,
                            interf_mw, exposure, u);
      if (u < d.p_ok) {
        s.has_packet = true;
        s.first_step = t;
        if (ws.budget[ui] == 0) s.finished = true;  // passive receiver: done
      }
    }

    // 4. Transmitter bookkeeping (after receptions so a TX at step t is
    //    heard at step t, not retroactively). Also clears the step's marks.
    for (phy::NodeId tx : ws.transmitters) {
      FloodWorkspace::NodeScratch& s = ws.state[static_cast<std::size_t>(tx)];
      s.tx_done += 1;
      if (s.tx_done >= ws.budget[static_cast<std::size_t>(tx)])
        s.finished = true;
      ws.is_tx[static_cast<std::size_t>(tx)] = 0;
    }
    out.steps_simulated = t + 1;
  }
  // dimmer-lint: hot-path end

  // 5. Fill results. Nodes that never received and participated listened for
  //    the whole slot (the paper's pessimistic radio-on accounting).
  for (phy::NodeId i = 0; i < n; ++i) {
    const FloodWorkspace::NodeScratch& s =
        ws.state[static_cast<std::size_t>(i)];
    NodeFloodResult& r = out.nodes[static_cast<std::size_t>(i)];
    if (!out.participated[static_cast<std::size_t>(i)]) continue;
    r.received = s.has_packet;
    r.first_rx_step = (i == initiator) ? 0 : (s.has_packet ? s.first_step : -1);
    r.transmissions = s.tx_done;
    bool heard = s.has_packet;
    r.radio_on_us = heard ? std::min<sim::TimeUs>(s.radio_on, params.slot_len_us)
                          : params.slot_len_us;
  }

  if (observed) record(out, params, exposure_sum, exposure_n);
}

void GlossyFlood::record(const FloodResult& result, const FloodParams& params,
                         double exposure_sum,
                         std::uint64_t exposure_n) const {
  // Single O(n) pass over the result; historically receiver_count() alone
  // was recomputed three times per recorded flood.
  const FloodResult::Summary sum = result.summarize();
  const double delivery =
      sum.participants == 0
          ? 1.0
          : static_cast<double>(sum.receivers) / sum.participants;
  double mean_exposure =
      exposure_n > 0 ? exposure_sum / static_cast<double>(exposure_n) : 0.0;

  if (instr_.metrics) {
    obs::MetricsRegistry& m = *instr_.metrics;
    m.counter("flood.runs") += 1;
    m.counter("flood.receivers") += static_cast<std::uint64_t>(sum.receivers);
    m.counter("flood.transmissions") +=
        static_cast<std::uint64_t>(sum.transmissions);
    m.counter("flood.steps") +=
        static_cast<std::uint64_t>(result.steps_simulated);
    m.histogram("flood.radio_on_us", {1000, 2000, 5000, 10000, 20000})
        .add(static_cast<double>(sum.radio_on_us));
    m.histogram("flood.exposure", {0.01, 0.05, 0.1, 0.25, 0.5, 0.75})
        .add(mean_exposure);
  }
  if (instr_.trace) {
    obs::TraceEvent e;
    e.kind = "flood";
    e.round = params.trace_round;
    e.t_us = params.slot_start_us;
    e.node = result.initiator;
    e.f("receivers", sum.receivers)
        .f("delivery_ratio", delivery)
        .f("steps", result.steps_simulated)
        .f("transmissions", sum.transmissions)
        .f("radio_on_us", static_cast<double>(sum.radio_on_us))
        .f("exposure", mean_exposure)
        .f("channel", params.channel);
    instr_.trace->emit(e);
  }
}

}  // namespace dimmer::flood
