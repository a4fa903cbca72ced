// Concurrent-query scheduler (the §7 open problem, implemented as an
// extension): stage packing, rule-capacity checks, weighted register
// degradation, end-to-end application.
#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "core/queries.h"

namespace newton {
namespace {

Query proto_counter(const std::string& name, uint32_t proto,
                    std::size_t width) {
  return QueryBuilder(name)
      .sketch(2, width)
      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, proto))
      .map({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, 1000)
      .build();
}

TEST(Scheduler, EmptyBatchIsTriviallyFeasible) {
  const SchedulePlan plan = schedule_queries({}, SwitchProfile{});
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.entries.empty());
}

TEST(Scheduler, DisjointQueriesShareStages) {
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({proto_counter("tcp", kProtoTcp, 1024), 1.0});
  reqs.push_back({proto_counter("udp", kProtoUdp, 1024), 1.0});
  reqs.push_back({proto_counter("icmp", kProtoIcmp, 1024), 1.0});
  const SchedulePlan plan = schedule_queries(reqs, SwitchProfile{});
  ASSERT_TRUE(plan.feasible) << plan.reason;
  // All three start at stage 0 (P-Newton multiplexing).
  for (const auto& e : plan.entries) EXPECT_EQ(e.opts.min_stage, 0u);
  EXPECT_LE(plan.stages_used, 7u);
}

TEST(Scheduler, OverlappingQueriesChain) {
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({make_q1(), 1.0});  // TCP SYN traffic
  reqs.push_back({make_q4(), 1.0});  // also TCP SYN traffic
  SwitchProfile profile;
  profile.stages = 24;
  const SchedulePlan plan = schedule_queries(reqs, profile);
  ASSERT_TRUE(plan.feasible) << plan.reason;
  EXPECT_EQ(plan.entries[0].opts.min_stage, 0u);
  EXPECT_GT(plan.entries[1].opts.min_stage, 0u);  // chained after Q1
}

TEST(Scheduler, RejectsWhenPipelineTooShort) {
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({make_q1(), 1.0});
  reqs.push_back({make_q4(), 1.0});  // chained: > 12 stages together
  const SchedulePlan plan = schedule_queries(reqs, SwitchProfile{});
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.reason.find("stages"), std::string::npos);
}

TEST(Scheduler, DegradesWidthsUnderRegisterPressure) {
  SwitchProfile profile;
  profile.bank_registers = 4'096;  // room for ~one full-width sketch/stage
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({proto_counter("tcp", kProtoTcp, 4096), /*weight=*/4.0});
  reqs.push_back({proto_counter("udp", kProtoUdp, 4096), /*weight=*/1.0});
  const SchedulePlan plan = schedule_queries(reqs, profile);
  ASSERT_TRUE(plan.feasible) << plan.reason;
  EXPECT_LE(plan.peak_bank_demand, profile.bank_registers);
  // The lighter-weight query pays the accuracy cost.
  const auto& heavy = plan.entries[0];
  const auto& light = plan.entries[1];
  EXPECT_GT(heavy.granted_width, light.granted_width);
  EXPECT_LT(light.granted_width, light.requested_width);
  EXPECT_GE(light.granted_width, 64u);  // floor respected
  // The plan quotes the accuracy price of the degradation: the shrunken
  // query pays more overcount, and the quotes are internally consistent.
  EXPECT_GT(light.expected_overcount, light.requested_overcount);
  EXPECT_GE(heavy.expected_overcount, heavy.requested_overcount);
  EXPECT_GE(light.expected_overcount, heavy.expected_overcount);
}

TEST(Scheduler, InfeasibleWhenFloorStillOverflows) {
  SwitchProfile profile;
  profile.bank_registers = 16;  // hopeless
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({proto_counter("tcp", kProtoTcp, 4096), 1.0});
  const SchedulePlan plan = schedule_queries(reqs, profile, /*floor=*/64);
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.reason.find("floor"), std::string::npos);
}

TEST(Scheduler, RejectsRuleCapacityOverflow) {
  SwitchProfile profile;
  profile.rules_per_module = 2;
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({proto_counter("a", kProtoTcp, 64), 1.0});
  reqs.push_back({proto_counter("b", kProtoUdp, 64), 1.0});
  reqs.push_back({proto_counter("c", kProtoIcmp, 64), 1.0});
  const SchedulePlan plan = schedule_queries(reqs, profile);
  EXPECT_FALSE(plan.feasible);
}

TEST(Scheduler, ApplyPlanInstallsEverything) {
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({proto_counter("tcp", kProtoTcp, 512), 1.0});
  reqs.push_back({proto_counter("udp", kProtoUdp, 512), 1.0});
  const SchedulePlan plan = schedule_queries(reqs, SwitchProfile{});
  ASSERT_TRUE(plan.feasible) << plan.reason;

  NewtonSwitch sw(1, 12, nullptr);
  Controller ctl(sw);
  const double ms = apply_plan(ctl, plan);
  EXPECT_GT(ms, 0.0);
  EXPECT_TRUE(ctl.installed("tcp"));
  EXPECT_TRUE(ctl.installed("udp"));
}

TEST(Scheduler, ApplyRejectsInfeasiblePlan) {
  SchedulePlan bad;
  bad.feasible = false;
  bad.reason = "nope";
  NewtonSwitch sw(1, 12, nullptr);
  Controller ctl(sw);
  EXPECT_THROW(apply_plan(ctl, bad), std::invalid_argument);
}

TEST(Scheduler, PlanMatchesControllerChaining) {
  // The plan's offsets must be consistent with the controller's own
  // auto-chaining so apply_plan succeeds on exactly the profiled switch.
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({make_q1(), 1.0});
  reqs.push_back({make_q4(), 1.0});
  reqs.push_back({make_q5(), 1.0});
  SwitchProfile profile;
  profile.stages = 24;
  const SchedulePlan plan = schedule_queries(reqs, profile);
  ASSERT_TRUE(plan.feasible) << plan.reason;
  NewtonSwitch sw(1, profile.stages, nullptr);
  Controller ctl(sw);
  EXPECT_NO_THROW(apply_plan(ctl, plan));
  for (const ScheduledQuery& sq : plan.entries)
    EXPECT_LE(ctl.compiled(sq.query.name)->max_stage() + 1, plan.stages_used)
        << sq.query.name;
}

}  // namespace
}  // namespace newton
