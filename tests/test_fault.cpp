// Fault-injection subsystem: deterministic fault plans, link-failure reroute
// equivalence on a fat-tree (resilient placement vs. the naive path-only
// control arm), transactional multi-switch installs with retry/rollback,
// switch-death failover and recovery, and the sharded runtime's watchdog
// (crashed and hung shard workers).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/queries.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/install_faults.h"
#include "net/net_controller.h"
#include "packet/flow_key.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"
#include "trace/attacks.h"
#include "trace/trace_gen.h"

namespace newton {
namespace {

constexpr std::size_t kStages = 6;

auto event_key(const FaultEvent& e) {
  return std::tuple(e.at_packet, static_cast<int>(e.kind), e.a, e.b);
}

// Deterministic host pairing: packet i flows hosts[src_of(i)] ->
// hosts[dst_of(i)], identical across the baseline and fault arms.
std::size_t src_of(std::size_t i, std::size_t n) { return (i * 7 + 1) % n; }
std::size_t dst_of(std::size_t i, std::size_t n) {
  std::size_t d = (i * 11 + 5) % n;
  if (d == src_of(i, n)) d = (d + 1) % n;
  return d;
}

// Distinct (sip, dip) exporter: the analyzer-level detected key set is a
// path-independent invariant (every pair seen exactly once, wherever the
// final slice ran).
Query make_pair_export(const QueryParams& p) {
  return QueryBuilder("pair_export")
      .sketch(p.sketch_depth, p.sketch_width)
      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp))
      .map({Field::SrcIp, Field::DstIp})
      .distinct({Field::SrcIp, Field::DstIp})
      .build();
}

// Dip-keyed SYN counter with a detection threshold: detection requires the
// slice chain to keep completing after a mid-trace reroute.
Query make_syn_count(uint32_t th) {
  return QueryBuilder("syn_count")
      .sketch(4, 1024)
      .filter(Predicate{}
                  .where(Field::Proto, Cmp::Eq, kProtoTcp)
                  .where(Field::TcpFlags, Cmp::Eq, kTcpSyn))
      .map({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, th)
      .build();
}

constexpr uint32_t kFloodVictim = 0xAC105001;  // 172.16.80.1

Trace fabric_trace(uint32_t seed) {
  TraceProfile prof = caida_like(seed);
  prof.num_flows = 200;
  Trace t = generate_trace(prof);
  std::mt19937 rng(seed + 7);
  inject_syn_flood(t, kFloodVictim, 150, 1, 500'000'000, rng);
  t.sort_by_time();
  return t;
}

struct FabricRun {
  Analyzer an;
  Network net;
  NetworkController ctl;
  FabricRun() : net(make_fat_tree(4), kStages, &an, 1 << 13), ctl(net, &an) {}

  // Replay the trace over rotating host pairs, firing `inj` (if any) at
  // each packet boundary.  Flood packets ride a fixed pair: per-switch
  // threshold state only accumulates when the attack enters at a stable
  // ingress (spreading it over 16 ingresses dilutes every replica).
  void replay(const Trace& t, FaultInjector* inj = nullptr) {
    const auto hosts = net.topo().hosts();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (inj) inj->advance(i);
      if (t.packets[i].dip() == kFloodVictim)
        net.send(t.packets[i], hosts[1], hosts[14]);
      else
        net.send(t.packets[i], hosts[src_of(i, hosts.size())],
                 hosts[dst_of(i, hosts.size())]);
    }
    if (inj) inj->finish();
  }
};

// ---------------------------------------------------------------------------
// Fault plans: determinism and connectivity preservation
// ---------------------------------------------------------------------------

TEST(FaultPlan, RandomPlanIsDeterministic) {
  const Topology t = make_fat_tree(4);
  const FaultPlan p1 = make_random_link_plan(t, 7, 6, 5000, 400);
  const FaultPlan p2 = make_random_link_plan(t, 7, 6, 5000, 400);
  ASSERT_EQ(p1.events.size(), p2.events.size());
  ASSERT_FALSE(p1.empty());
  for (std::size_t i = 0; i < p1.events.size(); ++i)
    EXPECT_EQ(event_key(p1.events[i]), event_key(p2.events[i]));

  const FaultPlan p3 = make_random_link_plan(t, 8, 6, 5000, 400);
  bool same = p1.events.size() == p3.events.size();
  if (same)
    for (std::size_t i = 0; i < p1.events.size(); ++i)
      same = same && event_key(p1.events[i]) == event_key(p3.events[i]);
  EXPECT_FALSE(same) << "different seeds produced identical plans";

  EXPECT_FALSE(p1.describe(t).empty());
}

TEST(FaultPlan, RandomPlanNeverPartitionsTheFabric) {
  Topology t = make_fat_tree(4);
  const FaultPlan plan = make_random_link_plan(t, 21, 10, 8000, 500);
  ASSERT_FALSE(plan.empty());
  // Sorted by position; every LinkDown pairs with a later LinkUp.
  uint64_t prev = 0;
  std::size_t downs = 0, ups = 0;
  for (const FaultEvent& e : plan.events) {
    EXPECT_GE(e.at_packet, prev);
    prev = e.at_packet;
    if (e.kind == FaultEvent::Kind::LinkDown) ++downs;
    if (e.kind == FaultEvent::Kind::LinkUp) ++ups;
  }
  EXPECT_EQ(downs, ups);
  // Replaying the schedule keeps every host pair connected at all times.
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultEvent::Kind::LinkDown)
      t.fail_link(e.a, e.b);
    else
      t.restore_link(e.a, e.b);
    EXPECT_TRUE(all_hosts_connected(t)) << plan.describe(t);
  }
  EXPECT_TRUE(t.failed.empty());
}

TEST(FaultPlan, InjectorFiresEventsAtPacketBoundaries) {
  Analyzer an;
  Network net(make_line(3), kStages, &an);
  const auto sws = net.topo().switches();
  const auto hosts = net.topo().hosts();
  ASSERT_EQ(sws.size(), 3u);

  FaultPlan plan;
  plan.events.push_back({FaultEvent::Kind::LinkDown, 2, sws[1], sws[2]});
  plan.events.push_back({FaultEvent::Kind::LinkUp, 4, sws[1], sws[2]});
  FaultInjector inj(net, std::move(plan));

  const Packet pk =
      make_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 1000, 80, kProtoTcp,
                  kTcpAck, 64, 1000);
  std::size_t delivered = 0;
  for (uint64_t i = 0; i < 6; ++i) {
    inj.advance(i);
    // A line has no alternate path: packets 2 and 3 are dropped, the rest
    // are delivered.
    delivered += net.send(pk, hosts[0], hosts[1]).delivered ? 1 : 0;
  }
  inj.finish();
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(net.packets_dropped(), 2u);
  EXPECT_TRUE(inj.done());
  EXPECT_EQ(inj.events_applied(), 2u);
  EXPECT_TRUE(net.topo().link_up(sws[1], sws[2]));
}

TEST(FaultPlan, NodeFailureTakesAllItsLinksDown) {
  Topology t = make_fat_tree(4);
  const auto edges = t.edge_switches();
  const int e0 = edges.front();
  EXPECT_THROW(t.fail_node(t.hosts().front()), std::invalid_argument);

  t.fail_node(e0);
  EXPECT_FALSE(t.node_up(e0));
  for (int n : t.adj.at(static_cast<std::size_t>(e0)))
    EXPECT_FALSE(t.link_up(e0, n));
  EXPECT_TRUE(t.neighbors(e0).empty());
  const auto live_edges = t.edge_switches();
  EXPECT_EQ(std::count(live_edges.begin(), live_edges.end(), e0), 0);
  // Its hosts are cut off.
  EXPECT_FALSE(all_hosts_connected(t));

  t.restore_node(e0);
  EXPECT_TRUE(t.node_up(e0));
  EXPECT_TRUE(all_hosts_connected(t));
}

// ---------------------------------------------------------------------------
// Tentpole E2E: reroute equivalence under injected link failures
// ---------------------------------------------------------------------------

TEST(RerouteEquivalence, ResilientPlacementSurvivesLinkFailures) {
  QueryParams p;
  p.sketch_width = 4096;
  p.q1_syn_th = 15;
  const Trace t = fabric_trace(101);

  FabricRun base;
  CompileOptions opts;
  opts.opt3 = false;
  base.ctl.deploy(make_pair_export(p), opts);
  base.ctl.deploy(make_q1(p), opts);
  ASSERT_GE(base.ctl.deployment("pair_export")->slices.size(), 2u)
      << "query must slice across switches for the reroute claim to bite";
  base.replay(t);
  ASSERT_GT(base.an.reports_for("pair_export"), 0u);

  FabricRun fault;
  fault.ctl.deploy(make_pair_export(p), opts);
  fault.ctl.deploy(make_q1(p), opts);
  FaultPlan plan = make_random_link_plan(fault.net.topo(), 11, 8, t.size(),
                                         t.size() / 8);
  ASSERT_FALSE(plan.empty());
  FaultInjector inj(fault.net, plan, &fault.ctl);
  fault.replay(t, &inj);

  // The plan never partitions the fabric: every packet still had a route.
  EXPECT_EQ(fault.net.packets_dropped(), 0u);
  EXPECT_EQ(inj.events_applied(), plan.events.size());

  // Analyzer-level results are equivalent to the no-failure run: the same
  // detected key sets (a rerouted flow may hit a fresh distinct replica and
  // re-report a pair, so raw report volume can only grow, never shrink).
  EXPECT_EQ(base.an.detected("pair_export"), fault.an.detected("pair_export"));
  EXPECT_GE(fault.an.reports_for("pair_export"),
            base.an.reports_for("pair_export"));
  // For the threshold query, exact key-set equality is too strict — a
  // reroute can split one replica's running count across two switches —
  // but the attack itself must be caught in both arms.
  auto sees_victim = [](const Analyzer& an) {
    for (const KeyArray& k : an.detected("q1_new_tcp"))
      if (k[index(Field::DstIp)] == kFloodVictim) return true;
    return false;
  };
  EXPECT_TRUE(sees_victim(base.an));
  EXPECT_TRUE(sees_victim(fault.an));
}

TEST(RerouteEquivalence, NaivePathPlacementLosesDetectionUnderReroute) {
  // Control arm: one flow of 200 SYNs toward a victim, the query placed only
  // along the flow's initial shortest path.  Failing the path's first link
  // at packet 20 reroutes the flow away from every downstream slice, so the
  // count freezes below threshold; the resilient arm under the same fault
  // keeps counting and detects.
  constexpr uint32_t kTh = 100;
  constexpr std::size_t kPackets = 200;
  const uint32_t victim = ipv4(172, 16, 50, 9);
  std::vector<Packet> flow;
  for (std::size_t i = 0; i < kPackets; ++i)
    flow.push_back(make_packet(ipv4(10, 1, 1, 1), victim, 1234, 80, kProtoTcp,
                               kTcpSyn, 64, 1000 + i * 1000));

  CompileOptions opts;
  opts.opt3 = false;

  auto run = [&](bool path_arm, bool with_fault, Analyzer& an,
                 std::size_t& deferred) {
    Network net(make_fat_tree(4), kStages, &an, 1 << 13);
    NetworkController ctl(net, &an);
    const auto hosts = net.topo().hosts();
    const int src = hosts.front(), dst = hosts.back();
    const uint32_t fh =
        static_cast<uint32_t>(FiveTupleHash{}(FiveTuple::of(flow[0])));
    const auto path = net.path(src, dst, fh);
    ASSERT_TRUE(path.has_value());
    const std::vector<int> sw_path = *path;
    ASSERT_EQ(sw_path.size(), 5u);  // edge-agg-core-agg-edge

    if (path_arm) {
      const auto& d = ctl.deploy_path(make_syn_count(kTh), sw_path, opts);
      ASSERT_GE(d.slices.size(), 2u)
          << "control arm needs a sliced query to have something to lose";
      EXPECT_FALSE(d.resilient);
    } else {
      ctl.deploy(make_syn_count(kTh), opts);
    }

    FaultPlan plan;
    if (with_fault)
      plan.events.push_back(
          {FaultEvent::Kind::LinkDown, 20, sw_path[0], sw_path[1]});
    FaultInjector inj(net, std::move(plan), &ctl);
    for (std::size_t i = 0; i < flow.size(); ++i) {
      inj.advance(i);
      const auto st = net.send(flow[i], src, dst);
      EXPECT_TRUE(st.delivered);  // rerouted, never dropped
      deferred += st.deferred ? 1 : 0;
    }
  };

  auto detects = [&](const Analyzer& an) {
    for (const KeyArray& k : an.detected("syn_count"))
      if (k[index(Field::DstIp)] == victim) return true;
    return false;
  };

  // Sanity: with the path intact, path-only placement does detect.
  Analyzer an_ok;
  std::size_t def_ok = 0;
  run(/*path_arm=*/true, /*with_fault=*/false, an_ok, def_ok);
  EXPECT_TRUE(detects(an_ok));
  EXPECT_EQ(def_ok, 0u);

  // Under the fault the naive arm demonstrably loses its reports ...
  Analyzer an_path;
  std::size_t def_path = 0;
  run(/*path_arm=*/true, /*with_fault=*/true, an_path, def_path);
  EXPECT_FALSE(detects(an_path));
  EXPECT_GT(def_path, 0u);  // executions stranded mid-chain at the egress
  EXPECT_LT(an_path.reports_for("syn_count"), an_ok.reports_for("syn_count"));

  // ... while Algorithm 2 under the same fault keeps detecting.
  Analyzer an_res;
  std::size_t def_res = 0;
  run(/*path_arm=*/false, /*with_fault=*/true, an_res, def_res);
  EXPECT_TRUE(detects(an_res));
}

// ---------------------------------------------------------------------------
// Transactional installs: retry with backoff, rollback, no half-placements
// ---------------------------------------------------------------------------

TEST(TransactionalInstall, PersistentRejectionRollsBackEverything) {
  QueryParams p;
  p.sketch_width = 512;
  CompileOptions opts;
  opts.opt3 = false;

  FabricRun f;
  InstallFaultModel faults;
  f.ctl.set_install_faults(&faults);
  const int sick = f.net.topo().edge_switches().front();
  faults.fail_always(sick);

  // Two rejected attempts in a row: each must abort cleanly AND release the
  // centrally allocated register ranges (a leak would eventually exhaust
  // the virtual banks and fail the final, healthy deploy).
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW(f.ctl.deploy(make_q1(p), opts), std::runtime_error);
    EXPECT_EQ(f.ctl.deployment("q1_new_tcp"), nullptr);
    for (int s : f.net.topo().switches())
      EXPECT_EQ(f.net.sw(s).installed_rule_count(), 0u)
          << "switch " << s << " kept rules after rollback";
  }
  EXPECT_GE(f.ctl.fault_stats().rollbacks, 2u);
  EXPECT_GE(f.ctl.fault_stats().install_retries, 2u);  // retried before aborting

  faults.restore(sick);
  const auto& d = f.ctl.deploy(make_q1(p), opts);
  EXPECT_GT(d.handles.size(), 0u);
  EXPECT_FALSE(f.ctl.any_degraded());

  // Withdraw releases everything again: a fresh deploy still fits.
  f.ctl.withdraw("q1_new_tcp");
  for (int s : f.net.topo().switches())
    EXPECT_EQ(f.net.sw(s).installed_rule_count(), 0u);
  f.ctl.deploy(make_q1(p), opts);
}

TEST(TransactionalInstall, TransientFlakeRetriesWithBackoff) {
  QueryParams p;
  p.sketch_width = 512;
  CompileOptions opts;
  opts.opt3 = false;

  FabricRun f;
  InstallFaultModel faults;
  f.ctl.set_install_faults(&faults);
  const int flaky = f.net.topo().edge_switches().front();
  faults.fail_next(flaky, 2);

  const auto& d = f.ctl.deploy(make_q1(p), opts);
  EXPECT_EQ(f.ctl.fault_stats().install_retries, 2u);
  EXPECT_EQ(f.ctl.fault_stats().rollbacks, 0u);
  EXPECT_EQ(faults.faults_injected(), 2u);
  // Modeled exponential backoff (2ms + 4ms) is charged to control latency.
  EXPECT_GE(d.total_latency_ms, 6.0);
  EXPECT_GT(d.handles.count(flaky), 0u);  // the batch eventually landed

  const auto snap = telemetry::Registry::global().snapshot();
  const auto* retries = snap.find("newton_net_install_retries_total");
  ASSERT_NE(retries, nullptr);
  EXPECT_GE(retries->value, 2.0);
}

TEST(TransactionalInstall, RetryExhaustionAbortsThenRecovers) {
  QueryParams p;
  p.sketch_width = 512;
  CompileOptions opts;
  opts.opt3 = false;

  FabricRun f;
  InstallFaultModel faults;
  f.ctl.set_install_faults(&faults);
  const int flaky = f.net.topo().edge_switches().front();

  // Exactly max_attempts consecutive failures: the batch exhausts its
  // retries and the whole placement rolls back.
  faults.fail_next(flaky, 4);
  EXPECT_THROW(f.ctl.deploy(make_q1(p), opts), std::runtime_error);
  EXPECT_EQ(f.ctl.fault_stats().rollbacks, 1u);
  for (int s : f.net.topo().switches())
    EXPECT_EQ(f.net.sw(s).installed_rule_count(), 0u);

  // A wider retry budget rides out the same flake.
  faults.fail_next(flaky, 4);
  f.ctl.set_retry_policy({/*max_attempts=*/6, /*base_backoff_ms=*/1.0});
  const auto& d = f.ctl.deploy(make_q1(p), opts);
  EXPECT_GT(d.handles.count(flaky), 0u);
  EXPECT_FALSE(f.ctl.any_degraded());
}

// ---------------------------------------------------------------------------
// Switch death: graceful degradation and recovery
// ---------------------------------------------------------------------------

TEST(SwitchFailover, DeathAndRecoveryKeepDetection) {
  QueryParams p;
  p.sketch_width = 4096;
  p.q1_syn_th = 30;
  CompileOptions opts;
  opts.opt3 = false;
  const Trace t = fabric_trace(202);

  FabricRun f;
  f.ctl.deploy(make_q1(p), opts);

  // Kill a non-edge switch (aggregation/core: no attached hosts, so the
  // fat-tree stays connected) mid-trace and bring it back later.  q1
  // slices shallow (2 slices at 6 stages/switch), so Algorithm 2 reaches
  // edge + aggregation switches only — pick a victim that actually holds
  // rules, or the death would be a no-op for the deployment.
  const auto edges = f.net.topo().edge_switches();
  int victim_sw = -1;
  for (int s : f.net.topo().switches())
    if (std::count(edges.begin(), edges.end(), s) == 0 &&
        f.net.sw(s).installed_rule_count() > 0) {
      victim_sw = s;
      break;
    }
  ASSERT_GE(victim_sw, 0);
  ASSERT_GT(f.net.sw(victim_sw).installed_rule_count(), 0u);

  FaultPlan plan;
  const uint64_t down_at = t.size() / 4, up_at = (2 * t.size()) / 3;
  plan.events.push_back(
      {FaultEvent::Kind::SwitchDown, down_at, victim_sw, -1});
  plan.events.push_back({FaultEvent::Kind::SwitchUp, up_at, victim_sw, -1});
  FaultInjector inj(f.net, std::move(plan), &f.ctl);

  const auto hosts = f.net.topo().hosts();
  bool checked_degraded = false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    inj.advance(i);
    if (i == down_at) {
      // Between death and recovery the deployment runs degraded on the
      // survivors: the dead switch's rules are orphaned, a fresh Algorithm 2
      // placement covers what is still reachable.
      EXPECT_TRUE(f.ctl.any_degraded());
      EXPECT_TRUE(f.ctl.deployment("q1_new_tcp")->degraded);
      EXPECT_EQ(f.ctl.fault_stats().failovers, 1u);
      checked_degraded = true;
    }
    if (t.packets[i].dip() == kFloodVictim)
      f.net.send(t.packets[i], hosts[1], hosts[14]);
    else
      f.net.send(t.packets[i], hosts[src_of(i, hosts.size())],
                 hosts[dst_of(i, hosts.size())]);
  }
  inj.finish();
  EXPECT_TRUE(checked_degraded);

  // No partition: an agg/core death never cuts off hosts in a fat-tree.
  EXPECT_EQ(f.net.packets_dropped(), 0u);

  // Recovery reconciled the returning switch: stale rules cleaned, coverage
  // whole again, delta installs issued.
  EXPECT_FALSE(f.ctl.any_degraded());
  EXPECT_FALSE(f.ctl.deployment("q1_new_tcp")->degraded);
  EXPECT_TRUE(f.ctl.deployment("q1_new_tcp")->orphaned.empty());
  EXPECT_GT(f.net.sw(victim_sw).installed_rule_count(), 0u);
  EXPECT_GE(f.ctl.fault_stats().delta_installs, 1u);

  // Detection survived the churn.
  bool found = false;
  for (const KeyArray& k : f.an.detected("q1_new_tcp"))
    found |= k[index(Field::DstIp)] == ipv4(172, 16, 80, 1);
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Runtime watchdog: crashed and hung shard workers
// ---------------------------------------------------------------------------

auto rec_key(const ReportRecord& r) {
  return std::tuple(r.qid, r.ts_ns, r.oper_keys, r.hash_result,
                    r.state_result, r.global_result, r.switch_id);
}

std::vector<ReportRecord> sorted(std::vector<ReportRecord> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return rec_key(a) < rec_key(b);
  });
  return v;
}

void expect_same_records(const std::vector<ReportRecord>& a,
                         const std::vector<ReportRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(rec_key(a[i]), rec_key(b[i])) << "record " << i;
}

struct TeeSink : ReportSink {
  Analyzer* an;
  ReportBuffer* buf;
  TeeSink(Analyzer* a, ReportBuffer* b) : an(a), buf(b) {}
  void report(const ReportRecord& r) override {
    if (an) an->report(r);
    if (buf) buf->report(r);
  }
};

Query make_udp_count(uint32_t th) {
  return QueryBuilder("udp_pkts_per_dst")
      .sketch(2, 8192)
      .window_ms(100)
      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoUdp))
      .map({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, th)
      .build();
}

Query make_syn_export() {
  return QueryBuilder("syn_export")
      .filter(Predicate{}
                  .where(Field::Proto, Cmp::Eq, kProtoTcp)
                  .where(Field::TcpFlags, Cmp::Eq, kTcpSyn))
      .map({Field::SrcIp, Field::DstIp})
      .build();
}

Trace shard_trace(std::size_t flows, uint32_t seed) {
  TraceProfile p = caida_like(seed);
  p.num_flows = flows;
  Trace t = generate_trace(p);
  std::mt19937 rng(seed + 99);
  inject_syn_flood(t, ipv4(172, 16, 7, 7), 200, 1, 150'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 9, 9), 120, 2, 450'000'000, rng);
  t.sort_by_time();
  return t;
}

std::vector<Query> shard_queries() {
  QueryParams p;
  p.sketch_width = 8192;
  return {make_q1(p), make_udp_count(100), make_syn_export()};
}

struct RunResult {
  std::vector<ReportRecord> records;
  std::unique_ptr<Analyzer> an;
  RuntimeStats stats;
  std::size_t live_shards = 0;
};

RunResult run_direct(const Trace& t, const std::vector<Query>& queries) {
  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  TeeSink tee{out.an.get(), &buf};
  NewtonSwitch sw(1, 24, &tee);
  Controller ctl(sw);
  for (const Query& q : queries) {
    const auto st = ctl.install(q);
    for (std::size_t bi = 0; bi < st.qids.size(); ++bi)
      out.an->register_qid_any(st.qids[bi], q.name, bi);
  }
  for (const Packet& p : t.packets) sw.process(p);
  out.records = sorted(buf.records());
  return out;
}

enum class ShardFault { None, Kill, Stall };

RunResult run_sharded_faulted(const Trace& t, const std::vector<Query>& queries,
                              std::size_t shards, ShardFault fault,
                              std::size_t fault_shard, std::size_t fault_at) {
  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = shards;
  o.shard_key = ShardKey::on({Field::DstIp});
  o.record_snapshots = false;
  if (fault == ShardFault::Stall) {
    o.queue_capacity = 8;      // the stalled ring fills fast
    o.watchdog_stall_ms = 50;  // and the watchdog gives up on it quickly
  }
  ShardedRuntime rt(sw, o, out.an.get());
  rt.set_report_sink(&buf);
  for (const Query& q : queries) rt.install(q);
  rt.start();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (fault != ShardFault::None && i == fault_at) {
      if (fault == ShardFault::Kill)
        rt.kill_shard_for_test(fault_shard);
      else
        rt.stall_shard_for_test(fault_shard);
    }
    rt.process(t.packets[i]);
  }
  rt.finish();
  out.records = sorted(buf.records());
  out.stats = rt.stats();
  out.live_shards = rt.live_shards();
  return out;
}

TEST(Watchdog, KilledShardFailsOverWithoutLosingReports) {
  const Trace t = shard_trace(500, 31);
  const std::vector<Query> queries = shard_queries();
  const RunResult ref = run_direct(t, queries);
  ASSERT_GT(ref.records.size(), 0u);

  for (const std::size_t kill_at :
       {std::size_t{10}, t.size() / 2, t.size() - 5}) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    const RunResult r = run_sharded_faulted(t, queries, 4, ShardFault::Kill,
                                            /*fault_shard=*/1, kill_at);
    // The dead worker's window-partial state was merged into its successor
    // and its backlog redistributed: the report stream is byte-identical to
    // the single-threaded run.
    expect_same_records(ref.records, r.records);
    EXPECT_EQ(r.stats.worker_failovers, 1u);
    EXPECT_EQ(r.live_shards, 3u);
    EXPECT_EQ(r.stats.live_shards, 3u);
    EXPECT_EQ(r.stats.abandoned_packets, 0u);
    EXPECT_EQ(r.stats.packets_in, t.size());
    for (const Query& q : queries) {
      EXPECT_EQ(ref.an->reports_for(q.name), r.an->reports_for(q.name));
      EXPECT_EQ(ref.an->detected(q.name), r.an->detected(q.name));
    }
  }
}

TEST(Watchdog, TwoCrashesFailOverSequentially) {
  const Trace t = shard_trace(500, 31);
  const std::vector<Query> queries = shard_queries();
  const RunResult ref = run_direct(t, queries);

  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = 4;
  o.shard_key = ShardKey::on({Field::DstIp});
  o.record_snapshots = false;
  ShardedRuntime rt(sw, o, out.an.get());
  rt.set_report_sink(&buf);
  for (const Query& q : queries) rt.install(q);
  rt.start();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i == t.size() / 4) rt.kill_shard_for_test(0);
    if (i == t.size() / 2) rt.kill_shard_for_test(2);
    rt.process(t.packets[i]);
  }
  rt.finish();

  EXPECT_EQ(rt.stats().worker_failovers, 2u);
  EXPECT_EQ(rt.live_shards(), 2u);
  expect_same_records(ref.records, sorted(buf.records()));
  for (const Query& q : queries)
    EXPECT_EQ(ref.an->detected(q.name), out.an->detected(q.name));
}

TEST(Watchdog, SuccessorSelectionSkipsAlreadyDeadWorker) {
  // Kill shard 2 first, then shard 1.  Shard 1's ring-order successor is
  // the already-dead shard 2, so the scan must skip it and land on shard 3
  // — a successor choice that never appears in the other watchdog tests
  // (their dead workers are never ring-adjacent).  A scan that stops at
  // the first candidate would merge state into a corpse and drop its
  // backlog; byte-completeness against the single-switch run proves the
  // second failover landed on a live worker.
  const Trace t = shard_trace(500, 31);
  const std::vector<Query> queries = shard_queries();
  const RunResult ref = run_direct(t, queries);
  ASSERT_GT(ref.records.size(), 0u);

  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = 4;
  o.shard_key = ShardKey::on({Field::DstIp});
  o.record_snapshots = false;
  ShardedRuntime rt(sw, o, out.an.get());
  rt.set_report_sink(&buf);
  for (const Query& q : queries) rt.install(q);
  rt.start();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i == t.size() / 4) rt.kill_shard_for_test(2);
    if (i == t.size() / 2) rt.kill_shard_for_test(1);
    rt.process(t.packets[i]);
  }
  rt.finish();

  EXPECT_EQ(rt.stats().worker_failovers, 2u);
  EXPECT_EQ(rt.live_shards(), 2u);
  EXPECT_EQ(rt.stats().abandoned_packets, 0u);
  EXPECT_EQ(rt.stats().packets_in, t.size());
  expect_same_records(ref.records, sorted(buf.records()));
  for (const Query& q : queries)
    EXPECT_EQ(ref.an->detected(q.name), out.an->detected(q.name));
}

TEST(Watchdog, StalledShardIsDetectedAndAbandoned) {
  const Trace t = shard_trace(300, 36);
  const std::vector<Query> queries = shard_queries();

  // A hung worker cannot be salvaged (its thread may still touch the
  // replica): the watchdog detects the frozen heartbeat, reroutes the key
  // range, counts the abandoned backlog — and the run completes.
  const RunResult r = run_sharded_faulted(t, queries, 4, ShardFault::Stall,
                                          /*fault_shard=*/2,
                                          /*fault_at=*/t.size() / 4);
  EXPECT_EQ(r.stats.worker_failovers, 1u);
  EXPECT_EQ(r.live_shards, 3u);
  EXPECT_GT(r.stats.abandoned_packets, 0u);
  EXPECT_EQ(r.stats.packets_in, t.size());
  EXPECT_GT(r.records.size(), 0u);

  // Lossy by design, but bounded: only the abandoned backlog is missing.
  const RunResult ref = run_direct(t, queries);
  EXPECT_LE(r.records.size(), ref.records.size());
}

// ---------------------------------------------------------------------------
// Bounded handoff: every demux push, control items included, runs under the
// watchdog deadline
// ---------------------------------------------------------------------------

// The hung-shard probe: 2 shards keyed on dip, shard 1 stalled, then
// `to_stalled` packets owned by shard 1 and one packet in the next window,
// whose barrier must detect the hang.  The demux runs on its own thread so
// a barrier that wedges fails the test within seconds instead of hanging
// the suite; the wedged thread is then detached and keeps the state it
// owns.  Returns the run's stats, or nothing if finish() never returned.
std::optional<RuntimeStats> run_hung_shard_probe(std::size_t queue_capacity,
                                                 std::size_t to_stalled) {
  struct Probe {
    NewtonSwitch sw{1, 24, nullptr};
    std::unique_ptr<ShardedRuntime> rt;
  };
  auto probe = std::make_shared<Probe>();
  RuntimeOptions o;
  o.num_shards = 2;
  o.queue_capacity = queue_capacity;
  o.shard_key = ShardKey::on({Field::DstIp});
  o.watchdog_stall_ms = 50;
  o.record_snapshots = false;
  probe->rt = std::make_unique<ShardedRuntime>(probe->sw, o);
  probe->rt->install(make_syn_export());

  std::vector<Packet> pkts;
  for (uint32_t dip = 1; pkts.size() < to_stalled; ++dip) {
    const Packet p = make_packet(ipv4(10, 0, 0, 1), dip, 1234, 80, kProtoTcp,
                                 kTcpSyn, 64, 1'000 * pkts.size());
    if (o.shard_key->shard_of(p, o.num_shards) == 1) pkts.push_back(p);
  }
  pkts.push_back(make_packet(ipv4(10, 0, 0, 1), 1, 1234, 80, kProtoTcp,
                             kTcpSyn, 64, 150'000'000));  // next window

  std::promise<RuntimeStats> done;
  std::future<RuntimeStats> result = done.get_future();
  std::thread demux([probe, pkts, done = std::move(done)]() mutable {
    try {
      ShardedRuntime& rt = *probe->rt;
      rt.start();
      rt.stall_shard_for_test(1);
      for (const Packet& p : pkts) rt.process(p);
      rt.finish();
      done.set_value(rt.stats());
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  if (result.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    demux.detach();
    return std::nullopt;
  }
  demux.join();
  return result.get();
}

TEST(BoundedHandoff, FenceIntoFullHungRingFailsOver) {
  // Shard 1 hangs with its ring exactly full, so the barrier's fence cannot
  // land.  The fence push runs under the watchdog deadline like a packet
  // burst: the shard fails over and finish() returns, instead of the demux
  // parking forever on the full ring.
  const auto stats = run_hung_shard_probe(/*queue_capacity=*/8,
                                          /*to_stalled=*/8);
  ASSERT_TRUE(stats.has_value()) << "barrier wedged on a hung shard's full "
                                    "ring";
  EXPECT_EQ(stats->worker_failovers, 1u);
  EXPECT_EQ(stats->live_shards, 1u);
  EXPECT_EQ(stats->abandoned_packets, 8u);
  EXPECT_EQ(stats->packets_in, 9u);
}

TEST(BoundedHandoff, AbandonedCountsOnlyPackets) {
  // The hung shard's ring holds its 5 packets and the fence the barrier
  // posted behind them; only the packets are lost.
  const auto stats = run_hung_shard_probe(/*queue_capacity=*/64,
                                          /*to_stalled=*/5);
  ASSERT_TRUE(stats.has_value()) << "barrier wedged on a hung shard";
  EXPECT_EQ(stats->worker_failovers, 1u);
  EXPECT_EQ(stats->abandoned_packets, 5u);
}

// ---------------------------------------------------------------------------
// Randomized fault sweep: reproducible from the printed seed
// ---------------------------------------------------------------------------

TEST(FaultSweep, RandomSeedsPreserveAnalyzerEquivalence) {
  uint32_t base;
  if (const char* env = std::getenv("NEWTON_FAULT_SEED"))
    base = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  else
    base = std::random_device{}();
  // Reproduce any failure below with: NEWTON_FAULT_SEED=<base> ctest ...
  std::printf("fault sweep base seed: %u\n", base);

  QueryParams p;
  p.sketch_width = 4096;
  CompileOptions opts;
  opts.opt3 = false;
  const Trace t = fabric_trace(77);  // trace fixed; only faults vary

  FabricRun base_run;
  base_run.ctl.deploy(make_pair_export(p), opts);
  base_run.replay(t);
  const KeySet base_pairs = base_run.an.detected("pair_export");
  ASSERT_GT(base_pairs.size(), 0u);

  for (uint32_t k = 0; k < 3; ++k) {
    const uint32_t seed = base + k;
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    FabricRun f;
    f.ctl.deploy(make_pair_export(p), opts);
    const FaultPlan plan =
        make_random_link_plan(f.net.topo(), seed, 6, t.size(), t.size() / 10);
    FaultInjector inj(f.net, plan, &f.ctl);
    f.replay(t, &inj);
    EXPECT_EQ(f.net.packets_dropped(), 0u);
    EXPECT_EQ(f.an.detected("pair_export"), base_pairs);
    EXPECT_GE(f.an.reports_for("pair_export"),
              base_run.an.reports_for("pair_export"));
  }
}

}  // namespace
}  // namespace newton
