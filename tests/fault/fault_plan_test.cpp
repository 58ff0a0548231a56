#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <sstream>

namespace simmr::fault {
namespace {

FaultPlan SamplePlan() {
  FaultPlan plan;
  plan.num_nodes = 4;
  plan.map_slots_per_node = 2;
  plan.reduce_slots_per_node = 1;
  plan.seed = 12345;
  FaultAction crash;
  crash.kind = FaultActionKind::kNodeCrash;
  crash.time = 7.25;
  crash.node = 2;
  FaultAction restore;
  restore.kind = FaultActionKind::kNodeRestore;
  restore.time = 31.0625;
  restore.node = 2;
  FaultAction hb;
  hb.kind = FaultActionKind::kHeartbeatLoss;
  hb.time = 40.0;
  hb.end_time = 55.5;
  hb.node = 0;
  FaultAction slow;
  slow.kind = FaultActionKind::kNodeSlowdown;
  slow.time = 1.0 / 3.0;  // not exactly representable in decimal
  slow.node = 3;
  slow.factor = 0.1 + 0.2;  // 0.30000000000000004
  FaultAction kill;
  kill.kind = FaultActionKind::kKillAttempt;
  kill.time = 12.0;
  kill.job = 1;
  kill.task_kind = obs::TaskKind::kReduce;
  kill.index = 5;
  plan.actions = {crash, restore, hb, slow, kill};
  return plan;
}

TEST(FaultPlanFormat, RoundTripsBitExactly) {
  const FaultPlan plan = SamplePlan();
  std::stringstream stream;
  WriteFaultPlan(stream, plan);
  const FaultPlan back = ReadFaultPlan(stream);
  EXPECT_EQ(back, plan);  // operator== compares doubles exactly
}

TEST(FaultPlanFormat, SerializedFormIsStable) {
  // Writing the same plan twice yields byte-identical text — the property
  // committed corpus pins rely on.
  const FaultPlan plan = SamplePlan();
  std::stringstream a, b;
  WriteFaultPlan(a, plan);
  WriteFaultPlan(b, plan);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str().rfind(kFaultPlanMagic, 0), 0u);  // starts with magic
}

TEST(FaultPlanFormat, BodyParserMatchesFullParser) {
  // Containers (simmr.repro.v1) consume the magic while peeking and hand
  // the rest to ReadFaultPlanBody.
  const FaultPlan plan = SamplePlan();
  std::stringstream stream;
  WriteFaultPlan(stream, plan);
  std::string magic;
  ASSERT_TRUE(std::getline(stream, magic));
  ASSERT_EQ(magic, kFaultPlanMagic);
  EXPECT_EQ(ReadFaultPlanBody(stream), plan);
}

TEST(FaultPlanFormat, RejectsUnknownVersion) {
  std::stringstream stream("simmr.faultplan.v9\nnum_nodes 1\n");
  EXPECT_THROW(ReadFaultPlan(stream), std::runtime_error);
}

TEST(FaultPlanFormat, RejectsTruncatedActionList) {
  const FaultPlan plan = SamplePlan();
  std::stringstream stream;
  WriteFaultPlan(stream, plan);
  std::string text = stream.str();
  text.erase(text.rfind("kill_attempt"));  // drop the declared last action
  std::stringstream cut(text);
  EXPECT_THROW(ReadFaultPlan(cut), std::runtime_error);
}

/// The message ReadFaultPlan throws for SamplePlan's text with one header
/// line replaced, or "" when it loads.
std::string HeaderError(const std::string& from, const std::string& to) {
  std::stringstream stream;
  WriteFaultPlan(stream, SamplePlan());
  std::string text = stream.str();
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  std::stringstream edited(text.replace(at, from.size(), to));
  try {
    ReadFaultPlan(edited);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(FaultPlanFormat, RejectsHeaderNumbersThatAreNotWholeTokens) {
  EXPECT_NE(HeaderError("num_nodes 4\n", "num_nodes 16abc\n")
                .find("bad num_nodes '16abc'"),
            std::string::npos);
  EXPECT_NE(HeaderError("seed 12345\n", "seed -5\n").find("bad seed '-5'"),
            std::string::npos);
  EXPECT_NE(HeaderError("map_slots_per_node 2\n", "map_slots_per_node 2 \n")
                .find("bad map_slots_per_node"),
            std::string::npos);
}

TEST(FaultPlanFormat, HugeActionCountFailsWithoutReservingIt) {
  // Reserving 2e9 actions up front would ask for ~112 GB.
  EXPECT_NE(HeaderError("actions 5\n", "actions 2000000000\n")
                .find("actions declares 2000000000, found 5"),
            std::string::npos);
}

TEST(FaultPlanFormat, KindNamesRoundTrip) {
  for (FaultActionKind kind :
       {FaultActionKind::kNodeCrash, FaultActionKind::kNodeRestore,
        FaultActionKind::kHeartbeatLoss, FaultActionKind::kNodeSlowdown,
        FaultActionKind::kKillAttempt}) {
    const auto parsed = ParseFaultActionKind(FaultActionKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseFaultActionKind("meteor_strike").has_value());
}

TEST(FaultPlanValidate, AcceptsSamplePlan) {
  EXPECT_EQ(ValidateFaultPlan(SamplePlan()), "");
}

TEST(FaultPlanValidate, AcceptsEmptyPlan) {
  EXPECT_EQ(ValidateFaultPlan(FaultPlan{}), "");
}

FaultAction NodeAction(FaultActionKind kind, double time, std::int32_t node) {
  FaultAction a;
  a.kind = kind;
  a.time = time;
  a.node = node;
  return a;
}

TEST(FaultPlanValidate, RejectsDoubleCrashWithoutRestore) {
  FaultPlan plan;
  plan.num_nodes = 2;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  plan.actions = {NodeAction(FaultActionKind::kNodeCrash, 1.0, 0),
                  NodeAction(FaultActionKind::kNodeCrash, 2.0, 0)};
  EXPECT_NE(ValidateFaultPlan(plan), "");
}

TEST(FaultPlanValidate, RejectsRestoreOfHealthyNode) {
  FaultPlan plan;
  plan.num_nodes = 2;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  plan.actions = {NodeAction(FaultActionKind::kNodeRestore, 1.0, 0)};
  EXPECT_NE(ValidateFaultPlan(plan), "");
}

TEST(FaultPlanValidate, RejectsOutOfRangeNode) {
  FaultPlan plan;
  plan.num_nodes = 2;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  plan.actions = {NodeAction(FaultActionKind::kNodeCrash, 1.0, 2)};
  EXPECT_NE(ValidateFaultPlan(plan), "");
  plan.actions[0].node = -1;
  EXPECT_NE(ValidateFaultPlan(plan), "");
}

TEST(FaultPlanValidate, RejectsEmptyHeartbeatLossWindow) {
  FaultPlan plan;
  plan.num_nodes = 2;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  FaultAction hb = NodeAction(FaultActionKind::kHeartbeatLoss, 5.0, 0);
  hb.end_time = 5.0;  // [5, 5) is empty
  plan.actions = {hb};
  EXPECT_NE(ValidateFaultPlan(plan), "");
}

TEST(FaultPlanValidate, RejectsNonPositiveSlowdownFactor) {
  FaultPlan plan;
  plan.num_nodes = 2;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  FaultAction slow = NodeAction(FaultActionKind::kNodeSlowdown, 5.0, 0);
  slow.factor = 0.0;
  plan.actions = {slow};
  EXPECT_NE(ValidateFaultPlan(plan), "");
}

TEST(FaultPlanValidate, RejectsNegativeKillTarget) {
  FaultPlan plan;  // geometry-free: kills only
  FaultAction kill;
  kill.kind = FaultActionKind::kKillAttempt;
  kill.time = 1.0;
  kill.job = -1;
  kill.index = 0;
  plan.actions = {kill};
  EXPECT_NE(ValidateFaultPlan(plan), "");
  plan.actions[0].job = 0;
  plan.actions[0].index = -1;
  EXPECT_NE(ValidateFaultPlan(plan), "");
  plan.actions[0].index = 0;
  EXPECT_EQ(ValidateFaultPlan(plan), "");
}

TEST(FaultPlanValidate, RejectsNodeActionsInGeometryFreePlan) {
  FaultPlan plan;  // num_nodes == 0
  plan.actions = {NodeAction(FaultActionKind::kNodeCrash, 1.0, 0)};
  EXPECT_NE(ValidateFaultPlan(plan), "");
}

TEST(FaultPlanValidate, RejectsNegativeTime) {
  FaultPlan plan;
  plan.num_nodes = 2;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  plan.actions = {NodeAction(FaultActionKind::kNodeCrash, -1.0, 0)};
  EXPECT_NE(ValidateFaultPlan(plan), "");
}

TEST(FaultPlanSort, StableWithinSameInstant) {
  FaultPlan plan;
  plan.num_nodes = 4;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  plan.actions = {NodeAction(FaultActionKind::kNodeCrash, 5.0, 1),
                  NodeAction(FaultActionKind::kNodeCrash, 5.0, 0),
                  NodeAction(FaultActionKind::kNodeCrash, 2.0, 3)};
  const auto sorted = SortedActions(plan);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].node, 3);  // earliest first
  EXPECT_EQ(sorted[1].node, 1);  // original order preserved at t=5
  EXPECT_EQ(sorted[2].node, 0);
}

}  // namespace
}  // namespace simmr::fault
