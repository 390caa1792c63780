#include "fault/plan.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace dimmer::fault {

FaultPlan& FaultPlan::crash(std::uint64_t round, NodeId node) {
  events.push_back({round, FaultKind::kNodeCrash, node, 1.0});
  return *this;
}

FaultPlan& FaultPlan::reboot(std::uint64_t round, NodeId node) {
  events.push_back({round, FaultKind::kNodeReboot, node, 1.0});
  return *this;
}

FaultPlan& FaultPlan::crash_coordinator(std::uint64_t round) {
  events.push_back({round, FaultKind::kCoordinatorCrash, -1, 1.0});
  return *this;
}

FaultPlan& FaultPlan::blackout(std::uint64_t start_round,
                               std::uint64_t end_round, double severity) {
  DIMMER_REQUIRE(end_round > start_round,
                 "blackout window must end after it starts");
  events.push_back({start_round, FaultKind::kBlackoutStart, -1, severity});
  events.push_back({end_round, FaultKind::kBlackoutEnd, -1, 0.0});
  return *this;
}

FaultPlan& FaultPlan::corrupt_control(std::uint64_t round) {
  events.push_back({round, FaultKind::kControlCorruption, -1, 1.0});
  return *this;
}

FaultPlan& FaultPlan::clock_drift(std::uint64_t round, NodeId node) {
  events.push_back({round, FaultKind::kClockDrift, node, 1.0});
  return *this;
}

void FaultPlan::validate(int n_nodes) const {
  long open_blackouts = 0;
  // Walk in replay (round-sorted, stable) order so window matching mirrors
  // what the injector will actually do.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events[a].round < events[b].round;
                   });
  for (std::size_t i : order) {
    const FaultEvent& e = events[i];
    switch (e.kind) {
      case FaultKind::kNodeCrash:
      case FaultKind::kNodeReboot:
      case FaultKind::kClockDrift:
        DIMMER_REQUIRE(e.node >= 0 && e.node < n_nodes,
                       "fault event targets a node out of range");
        break;
      case FaultKind::kCoordinatorCrash:
      case FaultKind::kControlCorruption:
        break;
      case FaultKind::kBlackoutStart:
        DIMMER_REQUIRE(e.severity >= 0.0 && e.severity <= 1.0,
                       "blackout severity must be in [0,1]");
        ++open_blackouts;
        DIMMER_REQUIRE(open_blackouts == 1,
                       "blackout windows must not overlap");
        break;
      case FaultKind::kBlackoutEnd:
        --open_blackouts;
        DIMMER_REQUIRE(open_blackouts == 0,
                       "blackout end without a matching start");
        break;
    }
  }
  DIMMER_REQUIRE(open_blackouts == 0, "unterminated blackout window");
}

namespace {
// Wire names, indexed by FaultKind's enumerator values. Append-only: these
// strings live in checkpoints on disk, so renaming one orphans every
// campaign directory that mentions it.
constexpr const char* kKindNames[] = {
    "node_crash",     "node_reboot",  "coordinator_crash", "blackout_start",
    "blackout_end",   "control_corruption",               "clock_drift"};
constexpr int kKindCount = static_cast<int>(sizeof(kKindNames) / sizeof(kKindNames[0]));
}  // namespace

const char* to_string(FaultKind kind) {
  int i = static_cast<int>(kind);
  DIMMER_REQUIRE(i >= 0 && i < kKindCount, "unknown FaultKind value");
  return kKindNames[i];
}

FaultKind fault_kind_from_string(const std::string& name) {
  for (int i = 0; i < kKindCount; ++i)
    if (name == kKindNames[i]) return static_cast<FaultKind>(i);
  DIMMER_REQUIRE(false, "unknown fault kind name: " + name);
  return FaultKind::kNodeCrash;  // unreachable
}

std::string to_json(const FaultPlan& plan) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& e = plan.events[i];
    os << (i ? ", " : "") << "{\"round\": " << e.round << ", \"kind\": "
       << util::json_quote(to_string(e.kind)) << ", \"node\": " << e.node
       << ", \"severity\": " << util::json_number(e.severity) << "}";
  }
  os << "]";
  return os.str();
}

FaultPlan plan_from_json(const util::json::Value& events) {
  FaultPlan plan;
  for (const util::json::Value& ev : events.as_array()) {
    FaultEvent e;
    e.round = ev.at("round").as_u64();
    e.kind = fault_kind_from_string(ev.at("kind").as_string());
    e.node = ev.at("node").as_int();
    e.severity = ev.at("severity").as_double();
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace dimmer::fault
