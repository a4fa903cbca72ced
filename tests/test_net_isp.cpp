// Deeper network-wide coverage: the ISP backbone, end-to-end deferral via
// the network's handler, ECMP/failure sweeps, validator negative paths,
// scheduler fuzzing.
#include <gtest/gtest.h>

#include <random>

#include "analyzer/analyzer.h"
#include "analyzer/deferred.h"
#include "core/queries.h"
#include "core/scheduler.h"
#include "net/net_controller.h"
#include "net/routing.h"
#include "trace/attacks.h"

namespace newton {
namespace {

TEST(IspBackbone, AllPairsRoutable) {
  const Topology t = make_isp_backbone();
  const auto sws = t.switches();
  for (int a : sws)
    for (int b : sws)
      ASSERT_TRUE(route(t, a, b).has_value()) << a << "->" << b;
}

TEST(IspBackbone, RedundantCorridorsSurviveFailure) {
  Topology t = make_isp_backbone();
  auto id_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < t.nodes.size(); ++i)
      if (t.nodes[i].name == name) return static_cast<int>(i);
    return -1;
  };
  const int sf = id_of("SanFrancisco"), ny = id_of("NewYork");
  ASSERT_GE(sf, 0);
  ASSERT_GE(ny, 0);
  const auto before = route(t, sf, ny, 1);
  ASSERT_TRUE(before.has_value());
  // Fail the first link of the chosen transcontinental path: an alternate
  // corridor must exist.
  t.fail_link((*before)[0], (*before)[1]);
  const auto after = route(t, sf, ny, 1);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*before, *after);
}

TEST(IspBackbone, PlacementCoversCaliforniaPaths) {
  const Topology t = make_isp_backbone();
  std::vector<int> ca_edges;
  for (int s : t.switches()) {
    const auto& n = t.nodes[s].name;
    if (n == "SanFrancisco" || n == "LosAngeles" || n == "SanJose" ||
        n == "SanDiego" || n == "Sacramento")
      ca_edges.push_back(s);
  }
  const std::size_t M = 3;
  const Placement p = place_resilient(t, ca_edges, M);
  // Every ECMP path leaving California meets slice d by hop d.
  for (int dst : t.switches()) {
    for (uint32_t h = 0; h < 4; ++h) {
      const auto path = route(t, ca_edges[0], dst, h);
      ASSERT_TRUE(path.has_value());
      const auto sws = switches_on(t, *path);
      for (std::size_t d = 0; d < std::min(M, sws.size()); ++d)
        EXPECT_TRUE(p.has(sws[d], d));
    }
  }
}

TEST(NetworkDeferral, ShortPathContinuesInSoftware) {
  // One 3-stage switch between the hosts: Q1 needs more slices than hops,
  // so the network's deferred handler must finish the query in software.
  Analyzer an;
  Network net(make_line(1), /*stages=*/3, &an, 1 << 14);
  NetworkController ctl(net, &an, 1 << 14);
  QueryParams p;
  p.sketch_width = 1024;
  CompileOptions opts;
  opts.opt3 = false;  // sliceable at any budget
  const auto& dep = ctl.deploy(make_q1(p), opts);
  ASSERT_GT(dep.slices.size(), 1u);

  SoftwarePlane software(&an, 64, 1 << 14);
  const auto qids =
      software.install_remaining(dep.slices, /*first=*/1, dep.uid);
  for (uint16_t q : qids) an.register_qid_any(q, "q1_new_tcp", 0);
  std::size_t deferred = 0;
  net.set_deferred_handler([&](const Packet& pk, const SpHeader& sp) {
    ++deferred;
    software.process(pk, sp);
  });

  std::mt19937 rng(61);
  Trace t;
  const uint32_t victim = ipv4(172, 16, 61, 61);
  inject_syn_flood(t, victim, 150, 1, 1'000'000, rng);
  t.sort_by_time();
  const auto hosts = net.topo().hosts();
  for (const Packet& pk : t.packets) net.send(pk, hosts[0], hosts[1]);

  EXPECT_GT(deferred, 0u);
  bool found = false;
  for (const KeyArray& k : an.detected("q1_new_tcp"))
    found |= k[index(Field::DstIp)] == victim;
  EXPECT_TRUE(found);
}

TEST(Validator, CatchesCorruptedSchedules) {
  CompiledQuery cq = compile_query(make_q4());
  ASSERT_EQ(validate_schedule(cq), "");

  // (a) Violate a RAW hazard: move the first H to stage 0 alongside its K.
  CompiledQuery raw = cq;
  for (auto& m : raw.branches[0].modules)
    if (m.type == ModuleType::H) {
      m.stage = 0;
      break;
    }
  EXPECT_NE(validate_schedule(raw), "");

  // (b) Duplicate (stage, type) within one branch.
  CompiledQuery dup = cq;
  int first_k_stage = -1;
  for (auto& m : dup.branches[0].modules) {
    if (m.type == ModuleType::K) {
      if (first_k_stage < 0)
        first_k_stage = m.stage;
      else {
        m.stage = first_k_stage;
        break;
      }
    }
  }
  EXPECT_NE(validate_schedule(dup), "");

  // (c) Unscheduled module.
  CompiledQuery unsched = cq;
  unsched.branches[0].modules[0].stage = -1;
  EXPECT_NE(validate_schedule(unsched), "");
}

TEST(Validator, CatchesOverlappingSameTrafficBranches) {
  CompiledQuery cq = compile_query(make_q8());
  ASSERT_EQ(cq.branches.size(), 2u);
  ASSERT_EQ(validate_schedule(cq), "");
  // Force branch 1 onto branch 0's stage range.
  const int base = cq.branches[0].modules[0].stage;
  int s = base;
  for (auto& m : cq.branches[1].modules) m.stage = s++;
  EXPECT_NE(validate_schedule(cq), "");
}

// Scheduler fuzz: random batches — a feasible plan always applies, an
// infeasible one always carries a reason.
class SchedulerFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SchedulerFuzz, PlansAreActionable) {
  std::mt19937 rng(GetParam());
  std::vector<ScheduleRequest> reqs;
  const std::size_t count = 1 + rng() % 6;
  const auto pool = all_queries([&] {
    QueryParams p;
    p.sketch_width = 256u << (rng() % 3);
    return p;
  }());
  for (std::size_t i = 0; i < count; ++i) {
    Query q = pool[rng() % pool.size()];
    q.name += "_" + std::to_string(i);
    reqs.push_back({std::move(q), 0.5 + (rng() % 4)});
  }
  SwitchProfile profile;
  profile.stages = 16 + rng() % 48;
  profile.bank_registers = 1u << (12 + rng() % 4);
  const SchedulePlan plan = schedule_queries(reqs, profile);
  if (!plan.feasible) {
    EXPECT_FALSE(plan.reason.empty());
    return;
  }
  EXPECT_LE(plan.stages_used, profile.stages);
  EXPECT_LE(plan.peak_bank_demand, profile.bank_registers);
  NewtonSwitch sw(1, profile.stages, nullptr, profile.bank_registers);
  Controller ctl(sw);
  EXPECT_NO_THROW(apply_plan(ctl, plan)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz, ::testing::Range(1u, 16u));

}  // namespace
}  // namespace newton
