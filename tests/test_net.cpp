// Network-wide: topologies, routing/ECMP/failures, Algorithm 2 placement,
// resilient end-to-end monitoring through reroutes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/queries.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "net/placement.h"
#include "net/routing.h"
#include "net/topology.h"
#include "telemetry/telemetry.h"
#include "trace/attacks.h"

namespace newton {
namespace {

TEST(Topology, FatTreeGeometry) {
  const Topology t = make_fat_tree(4);
  // k=4: 4 cores, 8 agg, 8 edge = 20 switches; 16 hosts.
  EXPECT_EQ(t.switches().size(), 20u);
  EXPECT_EQ(t.hosts().size(), 16u);
  EXPECT_EQ(t.edge_switches().size(), 8u);
}

TEST(Topology, FatTreeRejectsOddK) {
  EXPECT_THROW(make_fat_tree(3), std::invalid_argument);
}

TEST(Topology, IspBackboneConnected) {
  const Topology t = make_isp_backbone();
  EXPECT_EQ(t.switches().size(), 27u);
  // Every PoP reaches every other PoP.
  for (int dst : t.switches()) {
    const auto p = route(t, t.switches().front(), dst);
    ASSERT_TRUE(p.has_value());
  }
}

TEST(Topology, LineShape) {
  const Topology t = make_line(3);
  EXPECT_EQ(t.switches().size(), 3u);
  EXPECT_EQ(t.hosts().size(), 2u);
  const auto p = route(t, t.hosts()[0], t.hosts()[1]);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(switches_on(t, *p).size(), 3u);
}

TEST(Routing, ShortestAndEcmp) {
  const Topology t = make_fat_tree(4);
  const auto hosts = t.hosts();
  // Same pod, same edge: 1-switch path.
  const auto p1 = route(t, hosts[0], hosts[1]);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(switches_on(t, *p1).size(), 1u);
  // Cross-pod: 5-switch path (edge-agg-core-agg-edge).
  const auto p2 = route(t, hosts[0], hosts[15]);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(switches_on(t, *p2).size(), 5u);
  // ECMP: different flow hashes can pick different cores.
  std::set<std::vector<int>> distinct_paths;
  for (uint32_t h = 0; h < 16; ++h)
    distinct_paths.insert(*route(t, hosts[0], hosts[15], h));
  EXPECT_GT(distinct_paths.size(), 1u);
}

TEST(Routing, FailureReroutesAndPartitionDetected) {
  Topology t = make_line(3);
  const auto sw = t.switches();
  const auto hosts = t.hosts();
  ASSERT_TRUE(route(t, hosts[0], hosts[1]).has_value());
  t.fail_link(sw[1], sw[2]);
  EXPECT_FALSE(route(t, hosts[0], hosts[1]).has_value());  // line: no detour
  t.restore_link(sw[1], sw[2]);
  EXPECT_TRUE(route(t, hosts[0], hosts[1]).has_value());
}

TEST(Routing, FatTreeSurvivesSingleFailure) {
  Topology t = make_fat_tree(4);
  const auto hosts = t.hosts();
  const auto p = route(t, hosts[0], hosts[15], 3);
  ASSERT_TRUE(p.has_value());
  const auto sws = switches_on(t, *p);
  t.fail_link(sws[0], sws[1]);  // cut the first inter-switch hop
  const auto p2 = route(t, hosts[0], hosts[15], 3);
  ASSERT_TRUE(p2.has_value());
  EXPECT_NE(*p, *p2);
}

TEST(Topology, EveryMutatorBumpsGeneration) {
  Topology t;
  uint64_t gen = t.generation;
  const auto bumped = [&] {
    const bool moved = t.generation != gen;
    gen = t.generation;
    return moved;
  };
  const int a = t.add_node(NodeType::Switch, "a");
  EXPECT_TRUE(bumped()) << "add_node";
  const int b = t.add_node(NodeType::Switch, "b");
  EXPECT_TRUE(bumped()) << "add_node";
  t.add_link(a, b);
  EXPECT_TRUE(bumped()) << "add_link";
  t.fail_link(a, b);
  EXPECT_TRUE(bumped()) << "fail_link";
  t.restore_link(a, b);
  EXPECT_TRUE(bumped()) << "restore_link";
  t.fail_node(a);
  EXPECT_TRUE(bumped()) << "fail_node";
  t.restore_node(a);
  EXPECT_TRUE(bumped()) << "restore_node";
  // Queries leave it alone.
  (void)t.link_up(a, b);
  (void)t.neighbors(a);
  (void)t.edge_switches();
  EXPECT_FALSE(bumped());
}

TEST(RouteTable, MatchesBfsOracleUnderChurn) {
  // Network answers routes from cached tables; route() is the reference.
  // Random link/switch fail/restore churn, queries from any node (switch
  // sources too) to any node, unreachable pairs included.  The multi-homed
  // case gives hosts several uplinks (and one host-host link), so host
  // endpoints need their own tables and a source host has a choice.
  Topology multi_homed = make_fat_tree(4);
  {
    const std::vector<int> hosts = multi_homed.hosts();
    const std::vector<int> edges = multi_homed.edge_switches();
    for (std::size_t i = 0; i < hosts.size(); i += 2)
      multi_homed.add_link(hosts[i], edges[(i / 2 + 3) % edges.size()]);
    multi_homed.add_link(hosts[1], hosts[3]);
  }
  struct Case {
    const char* name;
    Topology topo;
  };
  Case cases[] = {{"fat-tree k=8", make_fat_tree(8)},
                  {"isp backbone", make_isp_backbone()},
                  {"line", make_line(3)},
                  {"multi-homed fat-tree k=4", multi_homed}};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    Network net(c.topo, /*stages=*/2, nullptr, /*bank=*/256);
    Topology& t = net.topo();
    const std::vector<int> sws = t.switches();
    std::vector<std::pair<int, int>> links;
    for (std::size_t a = 0; a < t.adj.size(); ++a)
      for (int b : t.adj[a])
        if (static_cast<int>(a) < b) links.push_back({static_cast<int>(a), b});
    const int n = static_cast<int>(t.nodes.size());
    std::mt19937_64 rng(0x5eed + t.nodes.size());
    std::size_t unreachable = 0, from_switch = 0, sent = 0, dropped = 0;
    for (int m = 0; m < 300; ++m) {
      switch (rng() % 4) {
        case 0: {
          const auto [a, b] = links[rng() % links.size()];
          t.fail_link(a, b);
          break;
        }
        case 1: {
          const auto [a, b] = links[rng() % links.size()];
          t.restore_link(a, b);
          break;
        }
        case 2:
          t.fail_node(sws[rng() % sws.size()]);
          break;
        default:
          t.restore_node(sws[rng() % sws.size()]);
          break;
      }
      for (int q = 0; q < 200; ++q) {
        const int src = static_cast<int>(rng() % n);
        const int dst = q % 16 == 0 ? src : static_cast<int>(rng() % n);
        const auto fh = static_cast<uint32_t>(rng());
        const auto oracle = route(t, src, dst, fh);
        const auto got = net.path(src, dst, fh);
        ASSERT_EQ(got.has_value(), oracle.has_value())
            << "mutation " << m << ": " << src << "->" << dst;
        if (oracle) {
          ASSERT_EQ(*got, switches_on(t, *oracle))
              << "mutation " << m << ": " << src << "->" << dst;
        }
        unreachable += !oracle;
        from_switch += t.is_switch(src);
      }
      // send() routes the same way: its hop count and drop decision follow
      // the oracle for the packet's own flow hash.
      const std::vector<int> hosts = t.hosts();
      const int h1 = hosts[rng() % hosts.size()];
      const int h2 = hosts[rng() % hosts.size()];
      const Packet pkt =
          make_packet(static_cast<uint32_t>(rng()), static_cast<uint32_t>(rng()),
                      1000 + m, 80, kProtoTcp, kTcpSyn, 64, 1000u * m);
      const auto fh =
          static_cast<uint32_t>(FiveTupleHash{}(FiveTuple::of(pkt)));
      const auto oracle = route(t, h1, h2, fh);
      const Network::SendStats st = net.send(pkt, h1, h2);
      ++sent;
      dropped += !oracle;
      ASSERT_EQ(st.delivered, oracle.has_value()) << "mutation " << m;
      if (oracle) {
        EXPECT_EQ(st.hops, switches_on(t, *oracle).size());
      }
    }
    EXPECT_GT(unreachable, 0u);
    EXPECT_GT(from_switch, 0u);
    EXPECT_EQ(net.packets_sent(), sent - dropped);
    EXPECT_EQ(net.packets_dropped(), dropped);
  }
}

TEST(Network, ReroutesAfterDirectTopologyMutation) {
  // a--d direct, or the detour a--b--d.  A link failed straight through
  // net.topo() must move the very next send onto the detour.
  Topology t;
  const int a = t.add_node(NodeType::Switch, "a");
  const int b = t.add_node(NodeType::Switch, "b");
  const int d = t.add_node(NodeType::Switch, "d");
  const int h1 = t.add_node(NodeType::Host, "h1");
  const int h2 = t.add_node(NodeType::Host, "h2");
  t.add_link(a, d);
  t.add_link(a, b);
  t.add_link(b, d);
  t.add_link(h1, a);
  t.add_link(h2, d);
  Network net(t, /*stages=*/2, nullptr, /*bank=*/256);
  const Packet pkt = make_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 1234,
                                 80, kProtoTcp, kTcpSyn, 64, 1000);

  EXPECT_EQ(net.send(pkt, h1, h2).hops, 2u);
  EXPECT_EQ(net.path(h1, h2, 0), (std::vector<int>{a, d}));
  const uint64_t rebuilds = net.route_stats().rebuilds;
  net.topo().fail_link(a, d);
  const Network::SendStats st = net.send(pkt, h1, h2);
  EXPECT_TRUE(st.delivered);
  EXPECT_EQ(st.hops, 3u);
  EXPECT_EQ(net.path(h1, h2, 0), (std::vector<int>{a, b, d}));
  EXPECT_EQ(net.route_stats().rebuilds, rebuilds + 1);

  net.topo().fail_node(b);
  EXPECT_FALSE(net.send(pkt, h1, h2).delivered);
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(Placement, SliceDepthsFollowDistance) {
  const Topology t = make_fat_tree(4);
  const Placement p = place_resilient(t, t.edge_switches(), 3);
  // Every edge switch carries slice 0.
  for (int e : t.edge_switches()) EXPECT_TRUE(p.has(e, 0));
  // Aggregation switches are 1 hop from edges: slice 1 present.
  bool agg_has_1 = false;
  for (const auto& [sw, slices] : p.assignment)
    if (t.nodes[sw].name.starts_with("agg"))
      agg_has_1 |= p.has(sw, 1);
  EXPECT_TRUE(agg_has_1);
}

TEST(Placement, RuleMultiplexingBoundsEntries) {
  const Topology t = make_fat_tree(4);
  const Placement p = place_resilient(t, t.edge_switches(), 2);
  // No switch holds a slice more than once.
  for (const auto& [sw, slices] : p.assignment) {
    std::set<std::size_t> uniq(slices.begin(), slices.end());
    EXPECT_EQ(uniq.size(), slices.size());
    EXPECT_LE(slices.size(), 2u);
  }
}

TEST(Placement, HostIdsInIngressSetAreIgnored) {
  // Traffic descriptions name ingress points, which may be host nodes; only
  // switches can hold module rules, so a host id seeded into the ingress set
  // must not be assigned slice 0 (it used to be, corrupting the layering).
  const Topology t = make_fat_tree(4);
  const int host = t.hosts()[0];
  ASSERT_FALSE(t.is_switch(host));

  std::vector<int> ingress = t.edge_switches();
  ingress.push_back(host);
  const Placement p = place_resilient(t, ingress, 3);

  EXPECT_EQ(p.assignment.count(host), 0u);
  // And the placement is exactly what the switch-only seed set produces.
  const Placement clean = place_resilient(t, t.edge_switches(), 3);
  EXPECT_EQ(p.assignment, clean.assignment);

  // An ingress set of only hosts places nothing rather than seeding hosts.
  const Placement none = place_resilient(t, {host}, 3);
  EXPECT_TRUE(none.assignment.empty());
}

TEST(Placement, IsolatedSwitchIsNeverAssigned) {
  // A switch with no links (disconnected from every ingress edge) must not
  // appear in the layering — Algorithm 2 only walks live adjacency.
  Topology t = make_line(3);
  const int island = t.add_node(NodeType::Switch, "island");

  const auto edges = t.edge_switches();
  Placement p = place_resilient(t, edges, 3);
  EXPECT_FALSE(p.assignment.empty());
  EXPECT_EQ(p.assignment.count(island), 0u);

  // Seeding the isolated switch as an ingress edge assigns it slice 0 only
  // (its own traffic can still be monitored locally); the layering never
  // crosses the missing links in either direction.
  std::vector<int> ingress = edges;
  ingress.push_back(island);
  p = place_resilient(t, ingress, 3);
  ASSERT_EQ(p.assignment.count(island), 1u);
  EXPECT_EQ(p.assignment.at(island), (std::vector<std::size_t>{0}));
}

TEST(Placement, DisconnectedAndEmptyIngressYieldNothing) {
  // Zero-edge / fully disconnected inputs degrade to an empty placement
  // rather than throwing or assigning host nodes.
  Topology t = make_line(2);
  EXPECT_TRUE(place_resilient(t, {}, 3).assignment.empty());
  EXPECT_TRUE(place_resilient(t, t.edge_switches(), 0).assignment.empty());

  // Every seed switch dead: nothing is reachable, nothing is placed.
  Topology dead = make_line(2);
  for (int s : dead.switches()) dead.fail_node(s);
  EXPECT_TRUE(
      place_resilient(dead, dead.edge_switches(), 3).assignment.empty());
}

TEST(Placement, CoverageInvariant) {
  // Resilience: along ANY path from an ingress edge, the packet meets
  // slice d at or before its (d+1)-th switch.  Check over ECMP paths.
  const Topology t = make_fat_tree(4);
  const std::size_t M = 3;
  const Placement p = place_resilient(t, t.edge_switches(), M);
  const auto hosts = t.hosts();
  for (uint32_t h = 0; h < 32; ++h) {
    const auto path = route(t, hosts[h % hosts.size()],
                            hosts[(h * 7 + 3) % hosts.size()], h);
    ASSERT_TRUE(path.has_value());
    const auto sws = switches_on(t, *path);
    for (std::size_t d = 0; d < std::min(M, sws.size()); ++d)
      EXPECT_TRUE(p.has(sws[d], d))
          << "slice " << d << " missing at hop " << d;
  }
}

TEST(Placement, StatsCountEntries) {
  const CompiledQuery cq = compile_query(make_q1());
  auto slices = slice_query(cq, 3);
  const Topology t = make_fat_tree(4);
  const Placement p = place_resilient(t, t.edge_switches(), slices.size());
  const PlacementStats st = placement_stats(p, slices);
  EXPECT_GT(st.total_entries, 0u);
  EXPECT_GT(st.avg_entries_per_switch, 0.0);
  EXPECT_EQ(st.switches, p.assignment.size());
}

class LineNetwork : public ::testing::Test {
 protected:
  LineNetwork()
      : net_(make_line(3), /*stages=*/3, &analyzer_, /*bank=*/1 << 14) {
    h1_ = net_.topo().hosts()[0];
    h2_ = net_.topo().hosts()[1];
  }

  Analyzer analyzer_;
  Network net_;
  int h1_, h2_;
};

TEST_F(LineNetwork, CqeDeploymentDetectsAttack) {
  NetworkController ctl(net_, &analyzer_, 1 << 14);
  QueryParams params;
  params.sketch_width = 1024;
  ctl.deploy(make_q1(params));

  std::mt19937 rng(55);
  Trace t;
  const uint32_t victim = ipv4(172, 16, 9, 1);
  inject_syn_flood(t, victim, 120, 1, 1'000'000, rng);
  t.sort_by_time();
  for (const Packet& p : t.packets) net_.send(p, h1_, h2_);

  bool found = false;
  for (const KeyArray& k : analyzer_.detected("q1_new_tcp"))
    found |= k[index(Field::DstIp)] == victim;
  EXPECT_TRUE(found);
  // CQE reports once per detection, not per hop.
  EXPECT_LT(analyzer_.reports_for("q1_new_tcp"), 10u);
  // SP headers were carried between hops.
  EXPECT_GT(net_.total_sp_link_bytes(), 0u);
}

TEST_F(LineNetwork, SoleModelReportsPerHop) {
  QueryParams params;
  params.sketch_width = 256;
  // Sole execution needs the whole query per switch: use 12-stage switches.
  Network wide(make_line(3), 12, &analyzer_, 1 << 14);
  NetworkController wide_ctl(wide, &analyzer_, 1 << 14);
  wide_ctl.deploy_sole(make_q1(params));

  std::mt19937 rng(56);
  Trace t;
  inject_syn_flood(t, ipv4(172, 16, 9, 2), 120, 1, 1'000'000, rng);
  t.sort_by_time();
  const auto hosts = wide.topo().hosts();
  for (const Packet& p : t.packets) wide.send(p, hosts[0], hosts[1]);

  // Every switch on the 3-hop path reports independently: ~3x the reports.
  EXPECT_GE(analyzer_.reports_for("q1_new_tcp"), 3u);
}

// State mass of the queries installed on `sw` since `before` (the qids
// present then): the sum of their allocated registers.
uint64_t mass_of_new_qids(const NewtonSwitch& sw,
                          const std::set<uint16_t>& before) {
  uint64_t mass = 0;
  for (const auto& seg : sw.state_segments()) {
    if (before.contains(seg.qid)) continue;
    const RegisterArray& bank = sw.modules().s[seg.stage]->registers();
    for (std::size_t i = 0; i < seg.width; ++i)
      mass += bank.read(seg.offset + i);
  }
  return mass;
}

TEST(TransitInit, SoleQueryCountsEachPacketOncePerHop) {
  // Two CQE-sliced queries make a SYN carry two SP headers past the
  // ingress switch, so each downstream hop runs two resume passes.  A
  // whole-query (sole) install must still see the packet exactly once per
  // hop: newton_init dispatches once, not once per carried header.
  Analyzer an;
  Network net(make_line(3), /*stages=*/5, &an, /*bank=*/1 << 14);
  NetworkController ctl(net, &an, 1 << 14);
  QueryParams params;
  params.sketch_width = 256;
  Query q1b = make_q1(params);
  q1b.name = "q1_new_tcp_b";
  ctl.deploy(make_q1(params));
  ctl.deploy(q1b);

  const std::vector<int> sws = net.topo().switches();
  std::map<int, std::set<uint16_t>> sliced_qids;
  for (int s : sws)
    for (const auto& seg : net.sw(s).state_segments())
      sliced_qids[s].insert(seg.qid);

  QueryBuilder b("sole_count");
  b.sketch(1, 32);
  b.map({Field::DstIp}).reduce({Field::DstIp}, Agg::Sum).when(Cmp::Ge, 1000);
  Query sole = b.build();
  sole.row_partitions = 1;
  ctl.deploy_sole(sole);

  const auto hosts = net.topo().hosts();
  const auto st = net.send(make_packet(ipv4(10, 0, 0, 1), ipv4(172, 16, 0, 1),
                                       1234, 80, kProtoTcp, kTcpSyn, 64, 1000),
                           hosts[0], hosts[1]);
  ASSERT_EQ(st.hops, 3u);
  ASSERT_GE(st.sp_link_bytes, 2 * kSpHeaderBytes);  // two headers leave s0
  for (int s : sws)
    EXPECT_EQ(mass_of_new_qids(net.sw(s), sliced_qids[s]), 1u)
        << "switch " << s;
}

TEST(TransitInit, SlicedDeployAfterSoleQuery) {
  // The other deploy order: a sole query first, then a CQE-sliced one.
  // The sole query's register ranges come from the central allocator, so
  // the sliced deployment's pre-resolved ranges never collide with them.
  Analyzer an;
  Network net(make_line(3), /*stages=*/5, &an, /*bank=*/1 << 14);
  NetworkController ctl(net, &an, 1 << 14);
  QueryBuilder b("sole_count");
  b.sketch(1, 32);
  b.map({Field::DstIp}).reduce({Field::DstIp}, Agg::Sum).when(Cmp::Ge, 1000);
  Query sole = b.build();
  sole.row_partitions = 1;
  ctl.deploy_sole(sole);
  QueryParams params;
  params.sketch_width = 256;
  EXPECT_NO_THROW(ctl.deploy(make_q1(params)));
  // Withdrawing both returns every central range: the same pair deploys
  // again.
  ctl.withdraw("q1_new_tcp");
  ctl.withdraw("sole_count");
  EXPECT_NO_THROW(ctl.deploy_sole(sole));
  EXPECT_NO_THROW(ctl.deploy(make_q1(params)));
}

TEST(TransitInit, OverlappingSoleDeploysChain) {
  // q1 (SYNs per destination) and q3 (distinct destinations per source)
  // both watch every SYN.  As whole-query deployments they share each
  // switch's metadata sets, so the later one must chain past the earlier
  // one; q1 keeps its 11 victims in either deploy order.
  QueryParams p;
  p.sketch_width = 256;
  p.q1_syn_th = 8;
  p.q3_fanout_th = 4;
  for (const bool q1_first : {true, false}) {
    Analyzer an;
    Network net(make_line(3), /*stages=*/32, &an, /*bank=*/1 << 14);
    NetworkController ctl(net, &an, 1 << 14);
    if (q1_first) ctl.deploy_sole(make_q1(p));
    ctl.deploy_sole(make_q3(p));
    if (!q1_first) ctl.deploy_sole(make_q1(p));
    const auto hosts = net.topo().hosts();
    for (uint32_t i = 0; i < 900; ++i)
      net.send(make_packet(ipv4(10, 0, 0, 1 + i % 3),
                           ipv4(172, 16, 0, 1 + i % 11), 4000 + i, 80,
                           kProtoTcp, i % 3 == 2 ? kTcpAck : kTcpSyn, 64,
                           1000ull * i),
               hosts[0], hosts[1]);
    EXPECT_EQ(an.detected("q1_new_tcp").size(), 11u)
        << "q1 first: " << q1_first;
    EXPECT_EQ(an.detected("q3_super_spreader").size(), 3u)
        << "q1 first: " << q1_first;
  }
}

TEST(IngressShared, OverlappingSliceZerosAreCounted) {
  // Every sliced query's slice 0 starts at stage 0 of its ingress switch,
  // so two slice 0s over shared traffic share that switch's metadata sets.
  // The controller counts such queries; TCP beside UDP shares nothing.
  Analyzer an;
  Network net(make_line(3), /*stages=*/5, &an, /*bank=*/1 << 14);
  NetworkController ctl(net, &an, 1 << 14);
  QueryParams params;
  params.sketch_width = 256;
  const auto gauge = [] {
    const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
    const telemetry::Sample* s =
        snap.find("newton_fleet_ingress_shared_queries");
    return s ? s->value : -1.0;
  };
  ctl.deploy(make_q1(params));  // TCP SYN, keyed on DstIp
  ctl.deploy(make_q5(params));  // UDP
  EXPECT_EQ(ctl.ingress_shared_queries(), 0u);
  EXPECT_EQ(gauge(), 0.0);
  ctl.deploy(make_q4(params));  // TCP SYN, keyed on SrcIp and DstPort
  EXPECT_EQ(ctl.ingress_shared_queries(), 2u);
  EXPECT_EQ(gauge(), 2.0);
  ctl.withdraw("q4_port_scan");
  EXPECT_EQ(ctl.ingress_shared_queries(), 0u);
  EXPECT_EQ(gauge(), 0.0);
  // Whole-query (sole) deployments chain instead and are not counted.
  QueryBuilder b("sole_count");
  b.sketch(1, 32);
  b.map({Field::DstIp}).reduce({Field::DstIp}, Agg::Sum).when(Cmp::Ge, 1000);
  Query sole = b.build();
  sole.row_partitions = 1;
  ctl.deploy_sole(sole);
  EXPECT_EQ(ctl.ingress_shared_queries(), 0u);
}

TEST(NetworkResilience, RerouteStillMonitored) {
  // Square of switches: two disjoint paths between the hosts.  Fail one
  // path mid-trace; the resiliently-placed query keeps monitoring.
  Topology t;
  const int a = t.add_node(NodeType::Switch, "a");
  const int b = t.add_node(NodeType::Switch, "b");
  const int c = t.add_node(NodeType::Switch, "c");
  const int d = t.add_node(NodeType::Switch, "d");
  t.add_link(a, b);
  t.add_link(b, d);
  t.add_link(a, c);
  t.add_link(c, d);
  const int h1 = t.add_node(NodeType::Host, "h1");
  const int h2 = t.add_node(NodeType::Host, "h2");
  t.add_link(h1, a);
  t.add_link(d, h2);

  Analyzer an;
  Network net(t, /*stages=*/6, &an, 1 << 14);
  NetworkController ctl(net, &an, 1 << 14);
  QueryParams params;
  params.q1_syn_th = 30;
  params.sketch_width = 512;
  ctl.deploy(make_q1(params), {}, {a});

  std::mt19937 rng(57);
  Trace flood;
  const uint32_t victim = ipv4(172, 16, 9, 3);
  inject_syn_flood(flood, victim, 200, 1, 1'000'000, rng);
  flood.sort_by_time();

  // First half on the original path, then a failure forces the other path.
  for (std::size_t i = 0; i < flood.size(); ++i) {
    if (i == flood.size() / 2) {
      const auto cur = net.path(h1, h2, 0);
      ASSERT_TRUE(cur.has_value());
      net.topo().fail_link((*cur)[0], (*cur)[1]);
    }
    net.send(flood.packets[i], h1, h2);
  }
  bool found = false;
  for (const KeyArray& k : an.detected("q1_new_tcp"))
    found |= k[index(Field::DstIp)] == victim;
  EXPECT_TRUE(found);
}

// One query's report as a comparable tuple: when, which keys, what result.
using ReportKey =
    std::tuple<uint64_t, std::array<uint32_t, kNumFields>, uint32_t>;

TEST(ConcurrentCqe, TwoSlicedQueriesMatchOneWholeSwitch) {
  // Two sliced queries that both start on every SYN: the ingress switch
  // emits two SP headers, and they travel the line together, each resumed
  // by its own pass at every hop.  The reports must be what one switch
  // holding both whole queries produces.  Queries run in one pass share
  // the PHV's metadata sets, so the two key, hash and count alike and
  // differ only in their thresholds: a header resumed as the other query
  // would report at the other threshold.
  QueryParams params;
  params.sketch_width = 256;
  params.q1_syn_th = 8;
  const Query by_dst = make_q1(params);
  params.q1_syn_th = 12;
  Query by_dst_late = make_q1(params);
  by_dst_late.name = "q1_new_tcp_late";

  constexpr std::size_t kStages = 3;
  constexpr std::size_t kBank = 1 << 14;
  ReportBuffer fleet_sink;
  Analyzer owners;  // the controller registers each (switch, qid) here
  Network net(make_line(8), kStages, &fleet_sink, kBank);
  NetworkController ctl(net, &owners, kBank);
  std::size_t headers_per_syn = 0;  // links each header crosses, summed
  for (const Query& q : {by_dst, by_dst_late}) {
    const auto& dep = ctl.deploy(q);
    ASSERT_GE(dep.slices.size(), 2u) << q.name;
    ASSERT_LE(dep.slices.size(), net.topo().switches().size()) << q.name;
    headers_per_syn += dep.slices.size() - 1;
  }

  ReportBuffer whole_sink;
  NewtonSwitch whole(99, 24, &whole_sink, kBank);
  std::map<uint16_t, std::string> whole_owner;
  for (const Query& q : {by_dst, by_dst_late})
    for (uint16_t qid : whole.install(compile_query(q)).qids)
      whole_owner[qid] = q.name;

  const auto hosts = net.topo().hosts();
  std::size_t syns = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    const uint32_t u = static_cast<uint32_t>(i);
    const bool syn = i % 3 != 2;
    const Packet p = make_packet(ipv4(10, 0, 0, 1) + u % 5,
                                 ipv4(172, 16, 0, 1) + u % 4, 1000 + u % 97,
                                 80, kProtoTcp, syn ? kTcpSyn : kTcpAck, 64,
                                 i * 1000);
    syns += syn;
    whole.process(p);
    const auto st = net.send(p, hosts[0], hosts[1]);
    ASSERT_FALSE(st.deferred) << "packet " << i;
  }

  std::map<std::string, std::vector<ReportKey>> fleet, single;
  for (const ReportRecord& r : fleet_sink.records()) {
    const auto* owner = owners.owner_of(r.switch_id, r.qid);
    ASSERT_NE(owner, nullptr);
    fleet[owner->first].emplace_back(r.ts_ns, r.oper_keys, r.global_result);
  }
  for (const ReportRecord& r : whole_sink.records())
    single[whole_owner.at(r.qid)].emplace_back(r.ts_ns, r.oper_keys,
                                               r.global_result);
  for (const Query& q : {by_dst, by_dst_late}) {
    std::sort(fleet[q.name].begin(), fleet[q.name].end());
    std::sort(single[q.name].begin(), single[q.name].end());
    EXPECT_FALSE(single[q.name].empty()) << q.name;
    EXPECT_EQ(fleet[q.name], single[q.name]) << q.name;
  }
  EXPECT_NE(fleet[by_dst.name], fleet[by_dst_late.name]);
  // Every SYN starts both executions at the ingress switch; each header
  // crosses one link per slice after the first, and nothing else rides.
  EXPECT_EQ(net.total_sp_link_bytes(), kSpHeaderBytes * syns * headers_per_syn);
}

TEST(NetworkController, WithdrawRemovesRules) {
  Analyzer an;
  Network net(make_line(2), 6, &an, 1 << 14);
  NetworkController ctl(net, &an, 1 << 14);
  QueryParams params;
  params.sketch_width = 256;
  ctl.deploy(make_q1(params));
  const auto sws = net.topo().switches();
  EXPECT_GT(net.sw(sws[0]).installed_rule_count(), 0u);
  ctl.withdraw("q1_new_tcp");
  for (int s : sws) EXPECT_EQ(net.sw(s).installed_rule_count(), 0u);
}

}  // namespace
}  // namespace newton
