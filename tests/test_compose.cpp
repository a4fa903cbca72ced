// Compiler: decomposition, Opt.1/2/3, Algorithm 1 scheduling, hazard
// validation, and the paper's module/stage count claims.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "core/compose.h"
#include "core/decompose.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "packet/packet.h"

namespace newton {
namespace {

CompileOptions level(int opts) {
  CompileOptions o;
  o.opt1 = opts >= 1;
  o.opt2 = opts >= 2;
  o.opt3 = opts >= 3;
  return o;
}

TEST(Decompose, FilterExpandsToFullSuite) {
  const Query q = QueryBuilder("t")
                      .filter(Predicate{}.where(Field::DstPort, Cmp::Ge, 53))
                      .map({Field::DstIp})
                      .build();
  // Opt.1 cannot absorb a range filter.
  const BranchModules b = decompose_branch(q, 0, /*opt1=*/true);
  std::size_t k = 0, h = 0, s = 0, r = 0;
  for (const auto& m : b.modules) {
    k += m.type == ModuleType::K;
    h += m.type == ModuleType::H;
    s += m.type == ModuleType::S;
    r += m.type == ModuleType::R;
  }
  // filter K + map K + the terminal report's tuple K (Opt.2 dedupes the
  // last one, since the map's keys are still selected).
  EXPECT_EQ(k, 3u);
  EXPECT_GE(h, 1u);
  EXPECT_GE(s, 1u);
  EXPECT_GE(r, 1u);
}

TEST(Decompose, Opt1AbsorbsFrontEqualityFilter) {
  const Query q = make_q1();
  const BranchModules with = decompose_branch(q, 0, /*opt1=*/true);
  const BranchModules without = decompose_branch(q, 0, /*opt1=*/false);
  EXPECT_LT(with.modules.size(), without.modules.size());
  // The init entry now constrains proto and flags.
  EXPECT_NE(with.init.key[4].mask, 0u);  // proto word
  EXPECT_NE(with.init.key[5].mask, 0u);  // flags word
  // Without Opt.1 the entry is match-all.
  EXPECT_EQ(without.init.key[4].mask, 0u);
}

TEST(Decompose, SketchPrimitivesGetDepthSuites) {
  Query q = QueryBuilder("t")
                .sketch(3, 128)
                .reduce({Field::DstIp}, Agg::Sum)
                .when(Cmp::Ge, 5)
                .build();
  const BranchModules b = decompose_branch(q, 0, true);
  std::size_t s_mods = 0;
  for (const auto& m : b.modules) s_mods += m.type == ModuleType::S && m.rule_needed;
  EXPECT_EQ(s_mods, 3u);  // one CM row per suite
}

TEST(Decompose, TerminalReportIsFolded) {
  const Query q = make_q1();
  const BranchModules b = decompose_branch(q, 0, true);
  const ModuleSpec* last_r = nullptr;
  for (const auto& m : b.modules)
    if (m.type == ModuleType::R && m.rule_needed) last_r = &m;
  ASSERT_NE(last_r, nullptr);
  EXPECT_EQ(last_r->r.on_match, RAction::Report);
}

// A branch with no primitives has nothing to report; decomposition rejects
// it instead of reading its (absent) last primitive.
TEST(Decompose, EmptyBranchIsRejected) {
  Query q;
  q.name = "empty";
  q.branches.push_back({"empty", {}});
  EXPECT_THROW(decompose_branch(q, 0, true), std::invalid_argument);
}

TEST(InitEntry, OverlapDetection) {
  const Query tcp_syn = make_q1();   // proto=6, flags=SYN
  const Query tcp_scan = make_q4();  // proto=6, flags=SYN
  const Query udp = make_q5();       // proto=17
  const auto a = decompose_branch(tcp_syn, 0, true).init;
  const auto b = decompose_branch(tcp_scan, 0, true).init;
  const auto c = decompose_branch(udp, 0, true).init;
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(InitEntrySpec::match_all().overlaps(a));
}

// Every query, every optimization level: schedules must be hazard-free.
class ScheduleValidity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScheduleValidity, HazardFree) {
  const auto [qi, opts] = GetParam();
  const Query q = all_queries()[static_cast<std::size_t>(qi)];
  const CompiledQuery cq = compile_query(q, level(opts));
  EXPECT_EQ(validate_schedule(cq), "") << q.name << " @opt" << opts;
}

INSTANTIATE_TEST_SUITE_P(AllQueriesAllOpts, ScheduleValidity,
                         ::testing::Combine(::testing::Range(0, 9),
                                            ::testing::Values(0, 1, 2, 3)));

// Optimizations must be monotone in stages at every level; module count is
// monotone through Opt.2, while Opt.3 may restore a few K modules (the
// price Algorithm 1 pays for vertical packing, l.16/21).
class OptMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(OptMonotonicity, ModulesAndStagesShrink) {
  const Query q = all_queries()[static_cast<std::size_t>(GetParam())];
  std::size_t prev_modules = SIZE_MAX, prev_stages = SIZE_MAX;
  for (int o = 0; o <= 3; ++o) {
    const CompiledQuery cq = compile_query(q, level(o));
    if (o <= 2)
      EXPECT_LE(cq.num_modules(), prev_modules) << q.name << " opt" << o;
    else
      EXPECT_LE(cq.num_modules(), prev_modules + 2 * q.branches.size())
          << q.name << " opt" << o;
    EXPECT_LE(cq.num_stages(), prev_stages) << q.name << " opt" << o;
    prev_modules = cq.num_modules();
    prev_stages = cq.num_stages();
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, OptMonotonicity, ::testing::Range(0, 9));

TEST(Compose, PaperHeadlineReductions) {
  // §6.4: compilation cuts >= 42.4% of modules and >= 69.7% of stages, and
  // optimized queries run in ~10 stages.  Our decomposition differs in
  // detail, so we assert slightly looser per-query floors; the bench prints
  // the measured ratios next to the paper's.  The per-traffic-class chain
  // depth (group span) is what must fit a switch pipeline; same-traffic
  // sub-queries (Q8) serialize beyond that and rely on CQE.
  for (const Query& q : all_queries()) {
    const CompiledQuery naive = compile_query(q, level(0));
    const CompiledQuery opt = compile_query(q, level(3));
    const double mod_cut = 1.0 - static_cast<double>(opt.num_modules()) /
                                     static_cast<double>(naive.num_modules());
    const double stage_cut = 1.0 - static_cast<double>(opt.num_stages()) /
                                       static_cast<double>(naive.num_stages());
    EXPECT_GE(mod_cut, 0.35) << q.name;
    EXPECT_GE(stage_cut, 0.55) << q.name;
    EXPECT_LE(opt.branch_stage_span(), 10u) << q.name;
    EXPECT_LE(opt.num_stages(), 15u) << q.name;
  }
}

TEST(Compose, Q4FootprintMatchesPaper) {
  // §6.5 sizes Q4 at 10 stages / 19 table entries; our compilation lands in
  // the same ballpark (exact decomposition details differ slightly).
  const CompiledQuery cq = compile_query(make_q4(), level(3));
  EXPECT_NEAR(static_cast<double>(cq.num_table_entries()), 19.0, 3.0);
  EXPECT_NEAR(static_cast<double>(cq.num_stages()), 10.0, 2.0);
}

TEST(Compose, Q6MultiplexesSubQueries) {
  // §6.4: Q6 (12 primitives, 3 parallel sub-queries) needs only ~5 stages
  // because branch rules multiplex the same modules.
  const CompiledQuery q6 = compile_query(make_q6(), level(3));
  const CompiledQuery q8 = compile_query(make_q8(), level(3));
  EXPECT_LE(q6.num_stages(), 6u);
  EXPECT_LT(q6.num_stages(), q8.num_stages());
}

TEST(Compose, Opt3UsesBothMetadataSets) {
  const CompiledQuery cq = compile_query(make_q4(), level(3));
  bool set0 = false, set1 = false;
  for (const auto& b : cq.branches)
    for (const auto& m : b.modules) {
      set0 |= m.set == 0;
      set1 |= m.set == 1;
    }
  EXPECT_TRUE(set0);
  EXPECT_TRUE(set1);
}

TEST(Compose, Opt3RequiresOpt2) {
  CompileOptions o;
  o.opt2 = false;
  o.opt3 = true;
  EXPECT_THROW(compile_query(make_q1(), o), std::invalid_argument);
}

TEST(Compose, MinStageShiftsSchedule) {
  CompileOptions o;
  o.min_stage = 5;
  const CompiledQuery cq = compile_query(make_q1(), o);
  EXPECT_GE(cq.min_used_stage(), 5u);
  EXPECT_EQ(validate_schedule(cq), "");
}

TEST(Compose, OverlappingBranchesChainDisjointStages) {
  // Q8's two branches watch the same TCP:80 traffic; they must not share
  // stages (they share the physical metadata sets).
  const CompiledQuery cq = compile_query(make_q8(), level(3));
  ASSERT_EQ(cq.branches.size(), 2u);
  EXPECT_EQ(cq.branches[0].chain_group, cq.branches[1].chain_group);
  EXPECT_EQ(validate_schedule(cq), "");
}

TEST(Compose, DisjointBranchesShareStages) {
  // Q6's three branches filter disjoint flag values: stage ranges overlap.
  const CompiledQuery cq = compile_query(make_q6(), level(3));
  ASSERT_EQ(cq.branches.size(), 3u);
  EXPECT_NE(cq.branches[0].chain_group, cq.branches[1].chain_group);
  // Multiplexing: total stages far below the sum of per-branch stages.
  EXPECT_LE(cq.num_stages(), 6u);
}

// Three branches whose overlap is not transitive: `udp` and `tcp` match
// disjoint traffic, and `p53` overlaps both.
Query three_branch_53() {
  return QueryBuilder("three53")
      .sketch(2, 4096)
      .branch("udp")
      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoUdp))
      .map({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, 100)
      .branch("tcp")
      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp))
      .map({Field::DstIp, Field::SrcIp})
      .distinct({Field::DstIp, Field::SrcIp})
      .map({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, 10)
      .branch("p53")
      .filter(Predicate{}.where(Field::DstPort, Cmp::Eq, 53))
      .map({Field::SrcIp})
      .reduce({Field::SrcIp}, Agg::Sum)
      .when(Cmp::Ge, 100)
      .build();
}

using Records = std::vector<std::tuple<std::array<uint32_t, kNumFields>,
                                       uint32_t, uint64_t>>;

// Each branch's sorted records after 3,000 packets to port 53 in one
// window: a third UDP from 5 sources to 172.16.0.1, the rest TCP from 40
// sources, even sources to 172.16.0.2 and odd ones to 172.16.0.3.
std::vector<Records> records_by_branch(const CompiledQuery& cq) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 32, &sink);
  const std::vector<uint16_t> qids = sw.install(cq).qids;
  for (uint32_t i = 0; i < 3000; ++i) {
    sw.process(i % 3 == 0
                   ? make_packet(ipv4(10, 0, 1, 1 + i % 5), ipv4(172, 16, 0, 1),
                                 5000, 53, kProtoUdp, 0, 64, 1000ull * i)
                   : make_packet(ipv4(10, 0, 0, 1 + i % 40),
                                 ipv4(172, 16, 0, 2 + i % 2), 5000 + i, 53,
                                 kProtoTcp, kTcpAck, 64, 1000ull * i));
  }
  std::vector<Records> out(qids.size());
  for (const ReportRecord& r : sink.records())
    for (std::size_t bi = 0; bi < qids.size(); ++bi)
      if (r.qid == qids[bi])
        out[bi].emplace_back(r.oper_keys, r.state_result, r.ts_ns);
  for (Records& rs : out) std::sort(rs.begin(), rs.end());
  return out;
}

// Stage range [lo, hi] of one compiled branch.
std::pair<int, int> stage_range(const BranchModules& b) {
  int lo = INT32_MAX, hi = -1;
  for (const ModuleSpec& m : b.modules) {
    lo = std::min(lo, m.stage);
    hi = std::max(hi, m.stage);
  }
  return {lo, hi};
}

TEST(Compose, OverlapClassesAreTransitive) {
  const Query q = three_branch_53();
  const CompiledQuery cq = compile_query(q, level(3));
  ASSERT_EQ(cq.branches.size(), 3u);
  // p53 links udp and tcp, so all three form one class.
  EXPECT_EQ(cq.branches[0].chain_group, 0u);
  EXPECT_EQ(cq.branches[1].chain_group, 0u);
  EXPECT_EQ(cq.branches[2].chain_group, 0u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      if (!cq.branches[i].init.overlaps(cq.branches[j].init)) continue;
      const auto [ilo, ihi] = stage_range(cq.branches[i]);
      const auto [jlo, jhi] = stage_range(cq.branches[j]);
      EXPECT_TRUE(ihi < jlo || jhi < ilo) << i << " vs " << j;
    }
  EXPECT_EQ(validate_schedule(cq), "");

  // Each branch alone, and the layout a non-transitive grouping gives: udp
  // and p53 chained from stage 0, tcp beside them from stage 0, so tcp and
  // p53 share stages over TCP traffic to port 53.
  std::vector<CompiledQuery> solo;
  for (std::size_t bi = 0; bi < 3; ++bi) {
    Query one = q;
    one.branches = {q.branches[bi]};
    solo.push_back(compile_query(one, level(3)));
  }
  CompiledQuery split = cq;
  CompileOptions after_udp = level(3);
  after_udp.min_stage = solo[0].max_stage() + 1;
  split.branches[0] = solo[0].branches[0];
  split.branches[1] = solo[1].branches[0];
  split.branches[2] = compile_query(solo[2].source, after_udp).branches[0];
  for (std::size_t bi = 0; bi < 3; ++bi) {
    split.branches[bi].branch_index = bi;
    split.branches[bi].chain_group = bi == 1 ? 1 : 0;
  }
  ASSERT_LE(stage_range(split.branches[1]).first,
            stage_range(split.branches[2]).second);
  ASSERT_GE(stage_range(split.branches[1]).second,
            stage_range(split.branches[2]).first);
  EXPECT_NE(validate_schedule(split), "");

  // On one switch every branch reports what it reports alone.
  const std::vector<Records> together = records_by_branch(cq);
  for (std::size_t bi = 0; bi < 3; ++bi) {
    const Records alone = records_by_branch(solo[bi])[0];
    EXPECT_FALSE(alone.empty()) << q.branches[bi].name;
    EXPECT_EQ(together[bi], alone) << q.branches[bi].name;
  }
}

TEST(Compose, MaxStagesGuardThrows) {
  CompileOptions o = level(0);
  o.max_stages = 3;  // naive Q4 needs dozens
  EXPECT_THROW(compile_query(make_q4(), o), std::runtime_error);
}

TEST(HazardDeps, EdgesPointBackward) {
  const CompiledQuery cq = compile_query(make_q4(), level(3));
  for (const auto& b : cq.branches) {
    const auto deps = hazard_deps(b.modules);
    for (std::size_t i = 0; i < deps.size(); ++i)
      for (std::size_t d : deps[i]) EXPECT_LT(d, i);
  }
}

}  // namespace
}  // namespace newton
