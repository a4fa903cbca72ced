// Semantic edge cases of the query language on the data plane: comparison
// operators in filters and mid-chain `when`, multi-filter absorption,
// masked predicates, and structural slicing properties.
#include <gtest/gtest.h>

#include "analyzer/ground_truth.h"
#include "core/compose.h"
#include "core/cqe.h"
#include "core/queries.h"
#include "core/newton_switch.h"
#include "trace/trace_gen.h"

namespace newton {
namespace {

KeySet run(const Query& q, const std::vector<Packet>& pkts) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 64, &sink, 1 << 14);
  sw.install(compile_query(q));
  for (const Packet& p : pkts) sw.process(p);
  KeySet out;
  for (const ReportRecord& r : sink.records()) out.insert(r.oper_keys);
  return out;
}

std::vector<Packet> port_ladder() {
  // One UDP packet per dport in {50, 100, 150, 200}, distinct dips.
  std::vector<Packet> pkts;
  uint64_t t = 0;
  for (uint32_t port : {50u, 100u, 150u, 200u})
    pkts.push_back(make_packet(1, 1000 + port, 9, port, kProtoUdp, 0, 64,
                               t += 1000));
  return pkts;
}

KeyArray dip_of(uint32_t dip) {
  KeyArray k{};
  k[index(Field::DstIp)] = dip;
  return k;
}

class FilterOp : public ::testing::TestWithParam<Cmp> {};

TEST_P(FilterOp, DataPlaneMatchesPredicateSemantics) {
  const Cmp op = GetParam();
  // Non-front filter (a map precedes it) so it runs as K/H/S/R modules.
  const Query q = QueryBuilder("t")
                      .map({Field::DstIp})
                      .filter(Predicate{}.where(Field::DstPort, op, 100))
                      .build();
  const auto pkts = port_ladder();
  const KeySet got = run(q, pkts);
  KeySet expect;
  for (const Packet& p : pkts)
    if (cmp_eval(op, p.dport(), 100)) expect.insert(dip_of(p.dip()));
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(AllOps, FilterOp,
                         ::testing::Values(Cmp::Eq, Cmp::Ne, Cmp::Ge, Cmp::Le,
                                           Cmp::Gt, Cmp::Lt));

TEST(MidChainWhen, GatesDownstreamPrimitives) {
  // Count packets per dip; once past 3, ALSO count distinct sports (the
  // mid-chain when gates the second aggregation).
  const Query q = QueryBuilder("t")
                      .sketch(2, 1024)
                      .reduce({Field::DstIp}, Agg::Sum)
                      .when(Cmp::Ge, 3)
                      .map({Field::DstIp, Field::SrcPort})
                      .distinct({Field::DstIp, Field::SrcPort})
                      .build();
  std::vector<Packet> pkts;
  uint64_t t = 0;
  // dip 7: 5 packets with distinct sports -> packets 3..5 pass the when,
  // contributing 3 distinct (dip,sport) reports.
  for (int i = 0; i < 5; ++i)
    pkts.push_back(make_packet(1, 7, 100 + static_cast<uint32_t>(i), 80,
                               kProtoUdp, 0, 64, t += 1000));
  // dip 8: 2 packets -> never passes.
  for (int i = 0; i < 2; ++i)
    pkts.push_back(make_packet(1, 8, 200 + static_cast<uint32_t>(i), 80,
                               kProtoUdp, 0, 64, t += 1000));
  const KeySet got = run(q, pkts);
  EXPECT_EQ(got.size(), 3u);
  for (const KeyArray& k : got) EXPECT_EQ(k[index(Field::DstIp)], 7u);
}

TEST(InitAbsorption, MultipleLeadingFiltersMergeIntoOneEntry) {
  const Query q = QueryBuilder("t")
                      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp))
                      .filter(Predicate{}.where(Field::DstPort, Cmp::Eq, 443))
                      .map({Field::DstIp})
                      .build();
  const CompiledQuery cq = compile_query(q);
  // Both filters absorbed: no filter modules remain, one init entry holds
  // the conjunction.
  EXPECT_EQ(cq.num_init_entries(), 1u);
  for (const auto& b : cq.branches)
    for (const auto& m : b.modules) EXPECT_NE(m.type, ModuleType::S);
  const auto& key = cq.branches[0].init.key;
  EXPECT_EQ(key[3].value & key[3].mask, 443u);       // dport word
  EXPECT_EQ(key[4].value & key[4].mask, kProtoTcp);  // proto word

  // And the semantics hold end to end.
  std::vector<Packet> pkts{
      make_packet(1, 10, 9, 443, kProtoTcp, kTcpAck, 64, 1),
      make_packet(1, 11, 9, 443, kProtoUdp, 0, 64, 2),      // wrong proto
      make_packet(1, 12, 9, 80, kProtoTcp, kTcpAck, 64, 3)  // wrong port
  };
  EXPECT_EQ(run(q, pkts), KeySet{dip_of(10)});
}

TEST(InitAbsorption, StopsAtFirstNonExpressibleFilter) {
  const Query q = QueryBuilder("t")
                      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoUdp))
                      .filter(Predicate{}.where(Field::PktLen, Cmp::Ge, 100))
                      .map({Field::DstIp})
                      .build();
  const CompiledQuery cq = compile_query(q);
  // The range filter stays on the data plane (it has an S bypass module).
  bool has_filter_modules = false;
  for (const auto& b : cq.branches)
    for (const auto& m : b.modules)
      has_filter_modules |= m.type == ModuleType::S && m.s.bypass;
  EXPECT_TRUE(has_filter_modules);

  std::vector<Packet> pkts{
      make_packet(1, 20, 9, 53, kProtoUdp, 0, 200, 1),  // passes both
      make_packet(1, 21, 9, 53, kProtoUdp, 0, 50, 2),   // too short
      make_packet(1, 22, 9, 53, kProtoTcp, 0, 200, 3)   // wrong proto
  };
  EXPECT_EQ(run(q, pkts), KeySet{dip_of(20)});
}

TEST(MaskedFilter, FinBitRegardlessOfOtherFlags) {
  const Query q =
      QueryBuilder("t")
          .filter(Predicate{}.where(Field::TcpFlags, Cmp::Eq, kTcpFin,
                                    kTcpFin))
          .map({Field::DstIp})
          .build();
  std::vector<Packet> pkts{
      make_packet(1, 30, 9, 80, kProtoTcp, kTcpFin, 64, 1),
      make_packet(1, 31, 9, 80, kProtoTcp, kTcpFin | kTcpAck, 64, 2),
      make_packet(1, 32, 9, 80, kProtoTcp, kTcpAck, 64, 3)  // no FIN
  };
  const KeySet got = run(q, pkts);
  EXPECT_TRUE(got.contains(dip_of(30)));
  EXPECT_TRUE(got.contains(dip_of(31)));
  EXPECT_FALSE(got.contains(dip_of(32)));
}

TEST(StructuralSlicing, PartitionsAreExhaustiveAndBounded) {
  const CompiledQuery cq = compile_query(make_q4());
  for (std::size_t n : {2u, 3u, 5u, 10u}) {
    const auto slices = slice_query_structural(cq, n);
    const std::size_t expect_parts = (cq.num_stages() + n - 1) / n;
    EXPECT_EQ(slices.size(), expect_parts) << n;
    std::size_t modules = 0;
    for (const auto& sl : slices) {
      EXPECT_LE(sl.part.max_stage() + 1, n);
      modules += sl.part.num_modules();
    }
    // Structural slicing never duplicates or drops modules.
    EXPECT_EQ(modules, cq.num_modules()) << n;
    EXPECT_TRUE(slices.back().final_slice);
  }
}

TEST(StructuralSlicing, HandlesMultiBranchQueries) {
  const CompiledQuery cq = compile_query(make_q6());
  const auto slices = slice_query_structural(cq, 3);
  std::size_t modules = 0;
  for (const auto& sl : slices) modules += sl.part.num_modules();
  EXPECT_EQ(modules, cq.num_modules());
}

TEST(WindowKnob, ShorterWindowsResetMoreOften) {
  // Identical traffic; a 10x shorter window must never detect more windows'
  // worth of aggregate than the long window does.
  auto build = [](uint64_t ms) {
    return QueryBuilder("t")
        .window_ms(ms)
        .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoUdp))
        .map({Field::DstIp})
        .reduce({Field::DstIp}, Agg::Sum)
        .when(Cmp::Ge, 8)
        .build();
  };
  std::vector<Packet> pkts;
  // 10 packets spread over 100ms: crosses 8 only in the long window.
  for (int i = 0; i < 10; ++i)
    pkts.push_back(make_packet(1, 40, 9, 53, kProtoUdp, 0, 64,
                               static_cast<uint64_t>(i) * 10'000'000));
  auto run_with_window = [&](uint64_t ms) {
    ReportBuffer sink;
    NewtonSwitch sw(1, 12, &sink);
    sw.install(compile_query(build(ms)));
    for (const Packet& p : pkts) sw.process(p);
    return sink.size();
  };
  EXPECT_EQ(run_with_window(100), 1u);
  EXPECT_EQ(run_with_window(10), 0u);  // 1 pkt per window: never crosses
}

TEST(WindowKnob, SwitchRunsTheInstalledQueryWindow) {
  // A 50 ms query on a default-constructed switch: ten packets 10 ms apart
  // put 5 in each window, never 8.  The switch takes its window from the
  // query, so it agrees with the exact evaluation at the query's window.
  const Query q = QueryBuilder("t50")
                      .window_ms(50)
                      .filter(Predicate{}.where(Field::Proto, Cmp::Eq,
                                                kProtoUdp))
                      .map({Field::DstIp})
                      .reduce({Field::DstIp}, Agg::Sum)
                      .when(Cmp::Ge, 8)
                      .build();
  Trace t;
  for (int i = 0; i < 10; ++i)
    t.packets.push_back(make_packet(1, 40, 9, 53, kProtoUdp, 0, 64,
                                    static_cast<uint64_t>(i) * 10'000'000));
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  sw.install(compile_query(q));
  EXPECT_EQ(sw.window_ns(), 50'000'000u);
  for (const Packet& p : t.packets) sw.process(p);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(exact_truth(q, t).passing_union(0).empty());
}

}  // namespace
}  // namespace newton
