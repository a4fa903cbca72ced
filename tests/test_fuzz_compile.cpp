// Property tests over randomly generated queries: every syntactically valid
// chain must (1) compile to a hazard-free schedule at every optimization
// level, (2) produce identical reports at every optimization level, and
// (3) agree with the exact reference semantics when sketches have ample
// width (no false negatives; no spurious keys).  Random 2-3 branch queries
// must (4) pass validate_schedule, overlap rule included, at every level and
// (5) report per branch exactly what that branch reports alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <random>
#include <string>
#include <vector>

#include "analyzer/ground_truth.h"
#include "analyzer/metrics.h"
#include "core/compose.h"
#include "core/newton_switch.h"
#include "trace/attacks.h"

namespace newton {
namespace {

// Key fields a random query may select (kept to fields with interesting
// diversity in the trace).
const std::vector<Field> kKeyFields{Field::SrcIp, Field::DstIp,
                                    Field::SrcPort, Field::DstPort,
                                    Field::PktLen};

std::vector<KeySel> random_keys(std::mt19937& rng) {
  std::vector<KeySel> keys;
  const std::size_t n = 1 + rng() % 2;
  std::vector<Field> pool = kKeyFields;
  std::shuffle(pool.begin(), pool.end(), rng);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(KeySel(pool[i]));
  return keys;
}

Query random_query(uint32_t seed) {
  std::mt19937 rng(seed);
  QueryBuilder b("fuzz" + std::to_string(seed));
  b.sketch(1 + rng() % 3, 1 << 15);

  // Optional front filter (sometimes init-expressible, sometimes not).
  switch (rng() % 4) {
    case 0:
      b.filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp));
      break;
    case 1:
      b.filter(Predicate{}
                   .where(Field::Proto, Cmp::Eq, kProtoTcp)
                   .where(Field::TcpFlags, Cmp::Eq, kTcpSyn));
      break;
    case 2:
      b.filter(Predicate{}.where(Field::PktLen, Cmp::Le, 600));  // not init
      break;
    default:
      break;  // no filter
  }

  b.map(random_keys(rng));
  if (rng() % 2) b.distinct(random_keys(rng));
  if (rng() % 3) {
    // Occasionally re-map before reducing.
    if (rng() % 2) b.map(random_keys(rng));
    b.reduce(random_keys(rng), Agg::Sum);
    b.when(Cmp::Ge, 5 + rng() % 60);
  }
  return b.build();
}

// 2-3 branches, each filtered on TCP, UDP, TCP SYN, DstPort 53 or nothing,
// so the branches overlap in every pattern, non-transitive ones included.
Query random_multi_branch_query(uint32_t seed) {
  std::mt19937 rng(seed);
  QueryBuilder b(std::string("multi").append(std::to_string(seed)));
  b.sketch(1 + rng() % 3, 1 << 15);
  const std::size_t branches = 2 + rng() % 2;
  for (std::size_t i = 0; i < branches; ++i) {
    b.branch(std::string("b").append(std::to_string(i)));
    switch (rng() % 5) {
      case 0:
        b.filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp));
        break;
      case 1:
        b.filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoUdp));
        break;
      case 2:
        b.filter(Predicate{}
                     .where(Field::Proto, Cmp::Eq, kProtoTcp)
                     .where(Field::TcpFlags, Cmp::Eq, kTcpSyn));
        break;
      case 3:
        b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq, 53));
        break;
      default:
        break;  // no filter
    }
    b.map(random_keys(rng));
    if (rng() % 2) b.distinct(random_keys(rng));
    b.reduce(random_keys(rng), Agg::Sum);
    b.when(Cmp::Ge, 2 + rng() % 20);
  }
  return b.build();
}

Trace fuzz_trace() {
  TraceProfile prof = caida_like(555);
  prof.num_flows = 600;
  Trace t = generate_trace(prof);
  std::mt19937 rng(555);
  inject_syn_flood(t, ipv4(172, 16, 3, 3), 90, 1, 10'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 3, 4), 60, 2, 30'000'000, rng);
  inject_port_scan(t, ipv4(198, 18, 3, 5), ipv4(172, 16, 3, 5), 70,
                   50'000'000, rng);
  t.sort_by_time();
  return t;
}

const Trace& shared_trace() {
  static const Trace t = fuzz_trace();
  return t;
}

// The fuzz trace plus DNS over TCP and UDP: 40 clients each send 6 TCP
// packets (a SYN, then ACKs) and 6 UDP queries to resolvers on port 53, so
// branches filtered on TCP, UDP and DstPort 53 overlap on real packets.
const Trace& multi_branch_trace() {
  static const Trace t = [] {
    Trace tr = fuzz_trace();
    for (uint32_t c = 0; c < 40; ++c)
      for (uint32_t k = 0; k < 6; ++k) {
        const uint64_t ts = 1'000'000ull * (1 + c) + 10'000ull * k;
        tr.packets.push_back(make_packet(
            ipv4(10, 9, 0, 1 + c), ipv4(172, 16, 5, 53 + c % 2), 30000 + c,
            53, kProtoTcp, k == 0 ? kTcpSyn : kTcpAck, 80, ts));
        tr.packets.push_back(make_packet(ipv4(10, 9, 1, 1 + c),
                                         ipv4(172, 16, 5, 53), 40000 + k, 53,
                                         kProtoUdp, 0, 70, ts + 5000));
      }
    tr.sort_by_time();
    return tr;
  }();
  return t;
}

CompileOptions level(int o) {
  CompileOptions opts;
  opts.opt1 = o >= 1;
  opts.opt2 = o >= 2;
  opts.opt3 = o >= 3;
  return opts;
}

KeySet run_on_switch(const Query& q, const CompileOptions& opts,
                     const Trace& t) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 128, &sink, 1 << 17);
  sw.install(compile_query(q, opts));
  for (const Packet& p : t.packets) sw.process(p);
  KeySet out;
  for (const ReportRecord& r : sink.records()) out.insert(r.oper_keys);
  return out;
}

// Each branch's report keys, one switch running all of `cq`.
std::vector<KeySet> run_by_branch(const CompiledQuery& cq, const Trace& t) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 64, &sink, 1 << 17);
  const std::vector<uint16_t> qids = sw.install(cq).qids;
  for (const Packet& p : t.packets) sw.process(p);
  std::vector<KeySet> out(qids.size());
  for (const ReportRecord& r : sink.records())
    for (std::size_t bi = 0; bi < qids.size(); ++bi)
      if (r.qid == qids[bi]) out[bi].insert(r.oper_keys);
  return out;
}

class FuzzQuery : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzQuery, SchedulesAreHazardFreeAtEveryLevel) {
  const Query q = random_query(GetParam());
  for (int o = 0; o <= 3; ++o) {
    CompileOptions opts = level(o);
    opts.max_stages = 512;
    const CompiledQuery cq = compile_query(q, opts);
    EXPECT_EQ(validate_schedule(cq), "") << q.name << " level " << o;
    EXPECT_GT(cq.num_modules(), 0u);
  }
}

TEST_P(FuzzQuery, OptimizationLevelsAgreeOnReports) {
  const Query q = random_query(GetParam());
  const Trace& t = shared_trace();
  const KeySet naive = run_on_switch(q, level(0), t);
  for (int o = 1; o <= 3; ++o)
    EXPECT_EQ(run_on_switch(q, level(o), t), naive)
        << q.name << " level " << o;
}

TEST_P(FuzzQuery, NoFalseNegativesVsExactReference) {
  const Query q = random_query(GetParam());
  const Trace& t = shared_trace();
  const KeySet detected = run_on_switch(q, level(3), t);
  const QueryTruth truth = exact_truth(q, t);
  const KeySet expect = truth.passing_union(0);
  const Accuracy acc = score(detected, expect, expect);
  // Distinct-terminal queries have the Bloom filter's one-sided error:
  // a false-positive membership test suppresses a genuine first occurrence
  // (~(n/m)^k of keys).  Threshold queries are FN-free at ample width.
  const bool ends_with_distinct =
      q.branches[0].primitives.back().kind == PrimitiveKind::Distinct;
  if (ends_with_distinct)
    EXPECT_LE(acc.fn, std::max<std::size_t>(4, expect.size() / 100))
        << q.name;
  else
    EXPECT_EQ(acc.fn, 0u) << q.name;
  // With 32K-wide sketches on this small trace, collisions are negligible.
  EXPECT_GE(acc.precision(), 0.99) << q.name;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQuery, ::testing::Range(1u, 26u));

class FuzzMultiBranch : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzMultiBranch, SchedulesPassTheOverlapRuleAtEveryLevel) {
  const Query q = random_multi_branch_query(GetParam());
  for (int o = 0; o <= 3; ++o) {
    const CompiledQuery cq = compile_query(q, level(o));
    EXPECT_EQ(validate_schedule(cq), "") << q.name << " level " << o;
    // The rule again, written out: branches whose init entries overlap
    // occupy disjoint stage ranges.
    const auto range = [](const BranchModules& b) {
      int lo = INT_MAX, hi = -1;
      for (const ModuleSpec& m : b.modules) {
        lo = std::min(lo, m.stage);
        hi = std::max(hi, m.stage);
      }
      return std::pair{lo, hi};
    };
    for (std::size_t i = 0; i < cq.branches.size(); ++i)
      for (std::size_t j = 0; j < i; ++j) {
        if (!cq.branches[i].init.overlaps(cq.branches[j].init)) continue;
        const auto [ilo, ihi] = range(cq.branches[i]);
        const auto [jlo, jhi] = range(cq.branches[j]);
        EXPECT_TRUE(ihi < jlo || jhi < ilo)
            << q.name << " level " << o << ": branches " << j << " and " << i;
      }
  }
}

TEST_P(FuzzMultiBranch, EachBranchReportsWhatItReportsAlone) {
  const Query q = random_multi_branch_query(GetParam());
  const Trace& t = multi_branch_trace();
  const std::vector<KeySet> together =
      run_by_branch(compile_query(q, level(3)), t);
  ASSERT_EQ(together.size(), q.branches.size());
  for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
    Query alone = q;
    alone.branches = {q.branches[bi]};
    EXPECT_EQ(together[bi], run_by_branch(compile_query(alone, level(3)), t)[0])
        << q.name << " branch " << q.branches[bi].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMultiBranch, ::testing::Range(1u, 41u));

}  // namespace
}  // namespace newton
