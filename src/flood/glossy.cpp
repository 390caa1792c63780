#include "flood/glossy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "phy/propagation.hpp"
#include "phy/reception.hpp"
#include "phy/sparse_link_model.hpp"
#include "util/check.hpp"

namespace dimmer::flood {
namespace {

/// The bit of node (or bit position) `i` within its 64-bit bitset word.
constexpr std::uint64_t bit_of(std::size_t i) {
  return std::uint64_t{1} << (i % 64);
}

/// The number of set bits in `x`. std::popcount is a libgcc call on the
/// baseline x86-64 target (no popcnt instruction), and the scatter counts
/// once per live link; this is the same count inline.
constexpr int popcount64(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555u);
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return static_cast<int>((x * 0x0101010101010101u) >> 56);
}
static_assert(popcount64(0) == 0 && popcount64(~std::uint64_t{0}) == 64 &&
              popcount64(0x8000'0000'0000'0101u) == 3);

}  // namespace

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
      interf_(interf, topo),
      noise_mw_(phy::dbm_to_mw(topo.radio().noise_floor_dbm)),
      noise_dbm_(phy::mw_to_dbm(noise_mw_)) {}

GlossyFlood::GlossyFlood(phy::LinkModel& links,
                         const phy::InterferenceField& interf)
    : links_(&links),
      interf_(interf, links.topology()),
      noise_mw_(phy::dbm_to_mw(links.topology().radio().noise_floor_dbm)),
      noise_dbm_(phy::mw_to_dbm(noise_mw_)) {}

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
  // Loop invariants, hoisted: each is the exact expression the step loop
  // historically evaluated per reception, so the bits are unchanged.
  const double fading_sigma = topo.path_loss().fading_sigma_db;
  const auto airtime_us =
      static_cast<sim::TimeUs>(std::llround(radio.airtime_us(params.payload_bytes)));
  const phy::Reception reception(params.coherence_gain, fading_sigma > 0.0,
                                 noise_mw_, noise_dbm_, frame_bytes);

  // Linear-domain link powers for this flood's TX power as CSR rows and
  // their bitmaps; cached across floods by the LinkModel (recomputed only
  // when the power changes).
  const phy::SparseLinkView& links = links_->prepare(params.tx_power_dbm);
  DIMMER_REQUIRE(links.row_bits != nullptr && links.rank != nullptr,
                 "link view without row bitmaps");

  // Per-node dynamic state, in caller-owned scratch.
  const auto un = static_cast<std::size_t>(n);
  const std::size_t words = links.words();
  ws.state.assign(un, FloodWorkspace::NodeScratch{});
  ws.budget.resize(un);
  ws.total_mw.assign(un, 0.0);
  ws.strongest_mw.assign(un, 0.0);
  ws.live.assign(words, 0);
  for (auto& set : ws.armed) set.assign(words, 0);
  ws.slot_sources.resize(interf_.source_count());
  ws.active_sources.resize(interf_.source_count());

  out.nodes.assign(un, NodeFloodResult{});
  out.participated.assign(un, false);
  out.steps_simulated = 0;
  out.initiator = initiator;

  for (std::size_t i = 0; i < un; ++i) {
    const auto& cfg = configs[i];
    const bool is_initiator = i == static_cast<std::size_t>(initiator);
    out.participated[i] = cfg.participates;
    // A non-participant joins neither set: it never listens or transmits.
    if (cfg.participates && !is_initiator) ws.live[i / 64] |= bit_of(i);
    // The initiator sources the packet: it transmits at least once even if
    // its own budget says 0 (a passive role never applies to one's own slot).
    ws.budget[i] = is_initiator ? std::max(1, cfg.n_tx) : cfg.n_tx;
  }
  {
    const auto ui = static_cast<std::size_t>(initiator);
    auto& init = ws.state[ui];
    init.has_packet = true;
    init.first_step = -1;  // transmits at even steps 0, 2, 4, ...
    ws.armed[0][ui / 64] |= bit_of(ui);
  }

  // Observability accumulators; only touched when a sink is attached.
  const bool observed = instr_.active();
  double exposure_sum = 0.0;
  std::uint64_t exposure_n = 0;

  // The interference sources that can burst in this slot, selected at the
  // flood's first listener over the span that holds every step window.
  const sim::TimeUs slot_end_us = params.slot_start_us + steps * step_len;
  bool selected = false;
  std::size_t n_selected = 0;

  std::uint64_t* const live = ws.live.data();
  double* const total = ws.total_mw.data();
  double* const strongest = ws.strongest_mw.data();

  // dimmer-lint: hot-path begin — the zero-allocation flood step loop; the
  // operator-new audit in tests/flood/test_workspace.cpp enforces the same
  // contract at runtime. Every set is walked word by word, lowest bit first,
  // so nodes are visited in ascending id order.
  for (int t = 0; t < steps; ++t) {
    // 1. Who transmits at this step? Alternation: a node first involved at
    //    step f transmits at f+1, f+3, ... while budget remains, so the
    //    step's transmitters are the armed holders of its parity.
    std::uint64_t* const tx_set =
        ws.armed[static_cast<std::size_t>(t & 1)].data();
    std::uint64_t* const next_set =
        ws.armed[static_cast<std::size_t>((t + 1) & 1)].data();
    bool any_tx = false;
    bool any_armed = false;
    for (std::size_t w = 0; w < words; ++w) {
      any_tx |= tx_set[w] != 0;
      any_armed |= (tx_set[w] | next_set[w]) != 0;
    }

    // 2. Early exit: nobody transmits now, and nobody ever will again.
    if (!any_armed) {
      out.steps_simulated = t;
      break;
    }

    const sim::TimeUs t0 = params.slot_start_us + t * step_len;
    const sim::TimeUs t1 = t0 + airtime_us;

    if (any_tx) {
      // 3a. Concurrent powers at the live listeners: each transmitter's row
      //     bitmap, masked by `live`, names the stored links that reach a
      //     listener still waiting for the packet, and the row's rank finds
      //     each one's mW entry. Transmitters ascending, listeners
      //     ascending within a row: every listener accumulates its
      //     transmitters in the same ascending order as the historical
      //     per-listener loop, so the floating-point sums are bit-identical
      //     (DESIGN.md §10). Links to anyone else are never read.
      for (std::size_t tw = 0; tw < words; ++tw) {
        for (std::uint64_t txs = tx_set[tw]; txs != 0; txs &= txs - 1) {
          const std::size_t tx =
              64 * tw + static_cast<std::size_t>(std::countr_zero(txs));
          const std::uint64_t* row_bits = links.row_bits + tx * words;
          const std::uint32_t* rank = links.rank + tx * words;
          const double* mw = links.mw + links.row_ptr[tx];
          for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t row = row_bits[w];
            for (std::uint64_t rxs = row & live[w]; rxs != 0; rxs &= rxs - 1) {
              const auto b = static_cast<std::size_t>(std::countr_zero(rxs));
              const std::uint64_t below = row & (bit_of(b) - 1);
              const double p_mw =
                  mw[rank[w] + static_cast<std::size_t>(popcount64(below))];
              const std::size_t rx = 64 * w + b;
              total[rx] += p_mw;
              strongest[rx] = std::max(strongest[rx], p_mw);
            }
          }
        }
      }

      // 3b. Receptions, one live listener at a time, ascending: each draws
      //     its fading normal, then its Bernoulli uniform (the historical
      //     per-listener order), and is decided at once by
      //     phy::Reception::success, which settles it from bounded-error
      //     SINRs with the decision the exact chain would take (DESIGN.md
      //     §12). rng.bernoulli(p) is exactly uniform() < p, so drawing the
      //     uniform first leaves the stream and the decisions bit-identical.
      //     No listener reads another's state, so deciding in place changes
      //     nothing later in the step. Each listener's accumulators are
      //     reset as they are read, ready for the next scatter.
      //     Interference: the flood's first listener selects the sources
      //     that can burst in the slot, and the step's first listener runs
      //     the one activity pass over that selection (no listener, no
      //     activity() call, as with per-listener sampling); every listener
      //     then sums its table row over the active sources, bit-identical
      //     to InterferenceField::sample (DESIGN.md §10, "Interference
      //     binding").
      bool scanned = false;
      std::size_t n_active = 0;
      double exposure = 0.0;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t rxs = live[w]; rxs != 0; rxs &= rxs - 1) {
          const auto b = static_cast<std::size_t>(std::countr_zero(rxs));
          const std::size_t ui = 64 * w + b;
          const double rx_strongest = strongest[ui];
          const double rx_total = total[ui];
          strongest[ui] = 0.0;
          total[ui] = 0.0;
          // A listener no stored link reaches sees exactly zero concurrent
          // power, so its success probability is < 1e-86 — reachable only
          // by a uniform() draw of exactly 0.0 (p = 2^-53). Skipping it
          // before the interference sample and both RNG draws lets a step
          // cost the flood frontier instead of N. A view that does not ask
          // for the skip gets the draws the direct-Topology loop makes, so
          // the RNG stream stays bit-identical to it.
          if (links.skip_unreached && rx_strongest == 0.0) continue;

          // Per-reception block fading at the listener.
          const double fade_db =
              fading_sigma > 0.0 ? rng.normal(0.0, fading_sigma) : 0.0;
          if (!scanned) {
            if (!selected) {
              n_selected = interf_.select(params.slot_start_us, slot_end_us,
                                          params.channel, ws.slot_sources);
              selected = true;
            }
            n_active = interf_.scan(
                t0, t1, params.channel,
                std::span(ws.slot_sources).first(n_selected),
                ws.active_sources, exposure);
            scanned = true;
          }
          if (observed) {
            exposure_sum += exposure;
            ++exposure_n;
          }
          const double interf_mw =
              interf_.power_mw(static_cast<phy::NodeId>(ui),
                               std::span(ws.active_sources).first(n_active));
          const double u = rng.uniform();  // the Bernoulli draw
          const phy::Reception::Decision d = reception.success(
              rx_strongest, rx_total, fade_db, interf_mw, exposure, u);
          if (u < d.p_ok) {
            FloodWorkspace::NodeScratch& s = ws.state[ui];
            s.has_packet = true;
            s.first_step = t;
            live[w] &= ~bit_of(b);
            if (ws.budget[ui] == 0)
              s.fin_step = t;  // passive receiver: done
            else
              next_set[w] |= bit_of(b);  // transmits at t+1, t+3, ...
          }
        }
      }

      // 4. Transmitter bookkeeping (after receptions so a TX at step t is
      //    heard at step t, not retroactively): a spent budget disarms.
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t txs = tx_set[w]; txs != 0; txs &= txs - 1) {
          const auto b = static_cast<std::size_t>(std::countr_zero(txs));
          const std::size_t tx = 64 * w + b;
          FloodWorkspace::NodeScratch& s = ws.state[tx];
          if (++s.tx_done >= ws.budget[tx]) {
            s.fin_step = t;
            tx_set[w] &= ~bit_of(b);
          }
        }
      }
    }
    out.steps_simulated = t + 1;
  }
  // dimmer-lint: hot-path end

  // 5. Fill results. A participant's radio is on from step 0 through the
  //    step it finished in, or through the last simulated step. Nodes that
  //    never received listened for the whole slot (the paper's pessimistic
  //    radio-on accounting).
  for (std::size_t i = 0; i < un; ++i) {
    if (!out.participated[i]) continue;
    const FloodWorkspace::NodeScratch& s = ws.state[i];
    NodeFloodResult& r = out.nodes[i];
    r.received = s.has_packet;
    r.first_rx_step = i == static_cast<std::size_t>(initiator)
                          ? 0
                          : (s.has_packet ? s.first_step : -1);
    r.transmissions = s.tx_done;
    const int on_steps = s.fin_step >= 0 ? s.fin_step + 1 : out.steps_simulated;
    r.radio_on_us = s.has_packet ? std::min<sim::TimeUs>(step_len * on_steps,
                                                         params.slot_len_us)
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
