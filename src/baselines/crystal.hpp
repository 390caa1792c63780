// Crystal baseline (Istomin et al., IPSN 2018; EWSN'19 competition config) —
// the dependable ST protocol the paper compares against in Fig. 7.
//
// Crystal serves aperiodic data collection: an epoch starts with a sink-
// initiated synchronization flood (S), followed by Transmission/
// Acknowledgement (TA) pairs. Sources with pending packets contend in the T
// slot (the capture effect resolves concurrent floods to one winner); the
// sink acknowledges the received packet in the A slot. The epoch terminates
// after R consecutive silent pairs — unless noise is detected at the sink,
// in which case extra TA pairs keep the radio on (interference resilience).
// Every TA pair hops to the next channel of the hopping sequence.
//
// Simplification (documented in DESIGN.md): concurrent contenders resolve to
// the source with the strongest received power at the sink, rather than a
// per-receiver capture race; with the paper's five aperiodic sources,
// concurrency in a T slot is rare and per-receiver mixing is second-order.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "flood/glossy.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace dimmer::baselines {

class CrystalNetwork {
 public:
  struct Config {
    sim::TimeUs epoch_period = sim::seconds(1);
    sim::TimeUs slot_len_us = sim::ms(10);  ///< T/A slots are short
    int n_tx = 2;                   ///< flood redundancy within a slot
    int payload_bytes = 30;
    int ack_bytes = 12;
    int sync_bytes = 14;
    int max_silent_pairs = 2;       ///< R: silent pairs before sleeping
    int max_pairs = 20;             ///< hard cap per epoch
    int extra_pairs_on_noise = 2;   ///< noise detection extends the epoch
    double noise_threshold_dbm = -88.0;
    std::vector<phy::Channel> hop_sequence = {11, 14, 17, 20, 22, 25};
    double tx_power_dbm = 0.0;
    double coherence_gain = 0.5;
  };

  CrystalNetwork(const phy::Topology& topo,
                 const phy::InterferenceField& interference, Config cfg,
                 phy::NodeId sink, std::uint64_t seed);

  /// Queue a packet at `source` for delivery to the sink.
  void offer_packet(phy::NodeId source);

  struct EpochStats {
    int pairs_executed = 0;
    int delivered = 0;        ///< packets first received at the sink
    int pending_after = 0;    ///< packets still queued at epoch end
    double radio_on_ms = 0.0; ///< mean per-slot radio-on across nodes
    sim::TimeUs total_radio_on_us = 0;  ///< summed across all nodes
    bool noise_detected = false;
  };

  /// Runs one Crystal epoch and advances time by the epoch period.
  EpochStats run_epoch();

  sim::TimeUs now() const { return time_; }
  int pending_packets() const;
  phy::NodeId sink() const { return sink_; }
  const phy::Topology& topology() const { return *topo_; }
  const Config& config() const { return cfg_; }

 private:
  struct Pending {
    phy::NodeId source;
    /// The sink already received (and counted) this packet but the source
    /// missed the ACK; retries are duplicates filtered by sequence number.
    bool counted = false;
  };

  const phy::Topology* topo_;
  const phy::InterferenceField* interf_;
  Config cfg_;
  phy::NodeId sink_;
  util::Pcg32 rng_;
  std::deque<Pending> queue_;
  sim::TimeUs time_ = 0;
  std::uint64_t epoch_idx_ = 0;
  // Persistent flood engine (keeps the mW link-row cache warm across
  // epochs) plus reused per-flood scratch/result buffers.
  flood::GlossyFlood engine_;
  flood::FloodWorkspace ws_;
  std::vector<flood::NodeFloodConfig> all_relay_;
  flood::FloodResult sync_buf_;
  flood::FloodResult tx_buf_;
  flood::FloodResult ack_buf_;
};

/// Aperiodic-collection workload over Crystal, mirroring
/// core::run_collection so Fig. 7 compares like with like.
struct CrystalCollectionResult {
  long sent = 0;
  long delivered = 0;
  double reliability = 1.0;
  double radio_on_ms = 0.0;
  double radio_duty = 0.0;  ///< fraction of wall-clock time radios were on
  long epochs = 0;
};

CrystalCollectionResult run_crystal_collection(CrystalNetwork& net,
                                               int n_sources,
                                               sim::TimeUs mean_interarrival,
                                               sim::TimeUs duration,
                                               std::uint64_t seed);

}  // namespace dimmer::baselines
