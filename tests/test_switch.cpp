// NewtonSwitch: runtime install / remove, register allocation, qid
// management, epochs, and the first end-to-end query execution smoke tests.
#include <gtest/gtest.h>

#include "analyzer/ground_truth.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "trace/attacks.h"

namespace newton {
namespace {

Trace syn_flood_trace(uint32_t victim, std::size_t syns) {
  std::mt19937 rng(7);
  Trace t;
  t.name = "synflood";
  // Background: a few benign connections.
  for (int i = 0; i < 20; ++i)
    emit_tcp_connection(t.packets, ipv4(10, 0, 0, 1 + i), ipv4(172, 16, 0, 9),
                        static_cast<uint16_t>(40000 + i), 443, 3,
                        10'000ull * i, 10'000, rng);
  inject_syn_flood(t, victim, /*sources=*/syns, /*per_source=*/1, 1'000'000,
                   rng);
  t.sort_by_time();
  return t;
}

TEST(NewtonSwitch, InstallAssignsRulesAndQids) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  const CompiledQuery cq = compile_query(make_q1());
  const auto res = sw.install(cq);
  EXPECT_EQ(res.qids.size(), 1u);
  EXPECT_EQ(res.rule_ops, cq.num_table_entries());
  EXPECT_GT(res.latency_ms, 0.0);
  EXPECT_EQ(sw.installed_rule_count(), cq.num_table_entries());
}

TEST(NewtonSwitch, RemoveRestoresCleanState) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  const auto res = sw.install(compile_query(make_q1()));
  EXPECT_GT(sw.installed_rule_count(), 0u);
  const double ms = sw.remove(res.handle);
  EXPECT_GT(ms, 0.0);
  EXPECT_EQ(sw.installed_rule_count(), 0u);
  EXPECT_EQ(sw.slots_used(), 0u);
  // Reinstall must succeed with all resources reclaimed.
  EXPECT_NO_THROW(sw.install(compile_query(make_q1())));
}

TEST(NewtonSwitch, RemoveUnknownHandleThrows) {
  NewtonSwitch sw(1);
  EXPECT_THROW(sw.remove(12345), std::invalid_argument);
}

TEST(NewtonSwitch, TooManyStagesSuggestsCqe) {
  NewtonSwitch sw(1, /*num_stages=*/3);
  EXPECT_THROW(sw.install(compile_query(make_q4())), std::runtime_error);
}

TEST(NewtonSwitch, ForwardingNeverInterruptedByQueryOps) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  const Packet p = make_packet(1, 2, 3, 4, kProtoTcp, kTcpSyn);
  uint64_t forwarded_before = sw.packets_forwarded();
  sw.process(p);
  const auto res = sw.install(compile_query(make_q1()));
  sw.process(p);
  sw.remove(res.handle);
  sw.process(p);
  EXPECT_EQ(sw.packets_forwarded(), forwarded_before + 3);
}

TEST(NewtonSwitchE2E, Q1DetectsSynFloodVictim) {
  const uint32_t victim = ipv4(172, 16, 1, 1);
  QueryParams params;
  params.q1_syn_th = 40;
  const Trace t = syn_flood_trace(victim, 300);

  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  sw.install(compile_query(make_q1(params)));
  for (const Packet& p : t.packets) sw.process(p);

  bool victim_reported = false;
  for (const ReportRecord& r : sink.records())
    if (r.oper_keys[index(Field::DstIp)] == victim) victim_reported = true;
  EXPECT_TRUE(victim_reported);
  // The exact-crossing report fires once per victim per window, so the
  // total report volume stays tiny (intent-only exportation).
  EXPECT_LT(sink.size(), 20u);
}

TEST(NewtonSwitchE2E, Q1MatchesGroundTruthOnCleanTrace) {
  const uint32_t victim = ipv4(172, 16, 1, 1);
  QueryParams params;
  params.q1_syn_th = 40;
  params.sketch_width = 8192;  // ample registers: sketch error ~ 0
  const Query q1 = make_q1(params);
  const Trace t = syn_flood_trace(victim, 200);

  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  sw.install(compile_query(q1));
  for (const Packet& p : t.packets) sw.process(p);

  const QueryTruth truth = exact_truth(q1, t);
  KeySet detected;
  for (const ReportRecord& r : sink.records()) detected.insert(r.oper_keys);
  EXPECT_EQ(detected, truth.passing_union(0));
}

TEST(NewtonSwitch, EpochResetClearsCounters) {
  QueryParams params;
  params.q1_syn_th = 5;
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  sw.install(compile_query(make_q1(params)));

  // 4 SYNs in window 0, 4 SYNs in window 1: never crosses the threshold.
  for (int w = 0; w < 2; ++w)
    for (int i = 0; i < 4; ++i)
      sw.process(make_packet(100 + i, 200, 1000, 80, kProtoTcp, kTcpSyn, 64,
                             w * 100'000'000ull + i * 1000));
  EXPECT_EQ(sink.size(), 0u);

  // 5 SYNs within one window: crosses.
  for (int i = 0; i < 5; ++i)
    sw.process(make_packet(100 + i, 200, 1000, 80, kProtoTcp, kTcpSyn, 64,
                           300'000'000ull + i * 1000));
  EXPECT_EQ(sink.size(), 1u);
}

TEST(NewtonSwitch, QidExhaustionThrows) {
  NewtonSwitch sw(1, 12, nullptr);
  // Each Q1 install consumes one qid; register space runs out long before
  // 256 installs with the default width, so shrink the sketch.
  QueryParams p;
  p.sketch_width = 16;
  std::size_t installed = 0;
  try {
    for (int i = 0; i < 300; ++i) {
      Query q = make_q1(p);
      q.name += std::to_string(i);
      sw.install(compile_query(q));
      ++installed;
    }
    FAIL() << "expected exhaustion";
  } catch (const std::runtime_error&) {
    EXPECT_GT(installed, 100u);  // rule capacity (256/module) is the binding limit
  }
}

TEST(Controller, UpdateSwapsThreshold) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  Controller ctl(sw);

  QueryParams p;
  p.q1_syn_th = 1000;  // silent
  ctl.install(make_q1(p));
  for (int i = 0; i < 50; ++i)
    sw.process(make_packet(100 + i, 200, 1000, 80, kProtoTcp, kTcpSyn, 64,
                           1000ull * i));
  EXPECT_EQ(sink.size(), 0u);

  p.q1_syn_th = 10;  // drill down after an anomaly: lower the threshold
  const auto st = ctl.update("q1_new_tcp", make_q1(p));
  EXPECT_GT(st.latency_ms, 0.0);
  for (int i = 0; i < 50; ++i)
    sw.process(make_packet(100 + i, 201, 1000, 80, kProtoTcp, kTcpSyn, 64,
                           1'000'000ull + 1000ull * i));
  EXPECT_EQ(sink.size(), 1u);
}

TEST(Controller, SameTrafficQueriesChainIntoLaterStages) {
  // Chained queries stack stage ranges; use a deep pipeline to hold both.
  NewtonSwitch sw(1, 24, nullptr);
  Controller ctl(sw);
  ctl.install(make_q1());  // TCP SYN traffic
  const std::size_t stage_after_q1 =
      ctl.compiled("q1_new_tcp")->max_stage() + 1;
  Query q4 = make_q4();    // also TCP SYN traffic -> overlap -> chained
  ctl.install(q4);
  const CompiledQuery* cq4 = ctl.compiled("q4_port_scan");
  ASSERT_NE(cq4, nullptr);
  EXPECT_GE(cq4->min_used_stage(), stage_after_q1);
}

TEST(Controller, DisjointTrafficQueriesShareStages) {
  NewtonSwitch sw(1, 12, nullptr);
  Controller ctl(sw);
  ctl.install(make_q1());  // TCP SYN
  ctl.install(make_q5());  // UDP: disjoint -> multiplex from stage 0
  const CompiledQuery* cq5 = ctl.compiled("q5_udp_ddos");
  ASSERT_NE(cq5, nullptr);
  EXPECT_EQ(cq5->min_used_stage(), 0u);
}

}  // namespace
}  // namespace newton
