// fault plan <-> JSON: a resumed campaign must re-run missing trials under
// byte-identical fault scripts.
#include <gtest/gtest.h>

#include <string>

#include "fault/plan.hpp"
#include "util/check.hpp"
#include "util/json_parse.hpp"

using dimmer::fault::fault_kind_from_string;
using dimmer::fault::FaultKind;
using dimmer::fault::FaultPlan;
using dimmer::fault::plan_from_json;
using dimmer::fault::to_json;
using dimmer::fault::to_string;

TEST(FaultPlanJson, KindNamesRoundTrip) {
  const FaultKind kinds[] = {
      FaultKind::kNodeCrash,      FaultKind::kNodeReboot,
      FaultKind::kCoordinatorCrash, FaultKind::kBlackoutStart,
      FaultKind::kBlackoutEnd,    FaultKind::kControlCorruption,
      FaultKind::kClockDrift};
  for (FaultKind k : kinds) {
    EXPECT_EQ(fault_kind_from_string(to_string(k)), k) << to_string(k);
  }
  EXPECT_THROW(fault_kind_from_string("meteor_strike"),
               dimmer::util::RequireError);
}

TEST(FaultPlanJson, PlanRoundTripsFieldForField) {
  FaultPlan plan;
  plan.crash(5, 3)
      .reboot(9, 3)
      .crash_coordinator(30)
      .blackout(30, 40, 0.35)
      .corrupt_control(31)
      .clock_drift(33, 7);

  const std::string text = to_json(plan);
  const FaultPlan back = plan_from_json(dimmer::util::json::parse(text));
  ASSERT_EQ(back.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(back.events[i].round, plan.events[i].round) << i;
    EXPECT_EQ(back.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(back.events[i].node, plan.events[i].node) << i;
    EXPECT_EQ(back.events[i].severity, plan.events[i].severity) << i;
  }
  // Replay-stable insertion order => serialization is byte-stable too.
  EXPECT_EQ(to_json(back), text);
}

TEST(FaultPlanJson, EmptyPlanIsEmptyArray) {
  EXPECT_EQ(to_json(FaultPlan{}), "[]");
  EXPECT_TRUE(plan_from_json(dimmer::util::json::parse("[]")).empty());
}

TEST(FaultPlanJson, MalformedEventsThrow) {
  using dimmer::util::json::parse;
  EXPECT_THROW(plan_from_json(parse("{}")), dimmer::util::RequireError);
  EXPECT_THROW(plan_from_json(parse("[{\"round\": 1}]")),
               dimmer::util::RequireError);
  EXPECT_THROW(
      plan_from_json(parse(
          "[{\"round\": 1, \"kind\": \"bad\", \"node\": 0, \"severity\": 1}]")),
      dimmer::util::RequireError);
}

TEST(FaultPlanJson, NodeOutsideIntThrowsInsteadOfWrapping) {
  // 2^32 used to wrap to node 0, which validate(18) accepts.
  EXPECT_THROW(plan_from_json(dimmer::util::json::parse(
                   "[{\"round\": 3, \"kind\": \"node_crash\", "
                   "\"node\": 4294967296, \"severity\": 1}]")),
               dimmer::util::RequireError);
}
