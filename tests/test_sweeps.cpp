// Parameterized sweeps: CQE equivalence for every single-branch query and
// stage budget, sketch-geometry sweeps, pairwise concurrent installs.
#include <gtest/gtest.h>

#include "analyzer/analyzer.h"
#include "analyzer/ground_truth.h"
#include "analyzer/metrics.h"
#include "core/controller.h"
#include "core/cqe.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "trace/attacks.h"

namespace newton {
namespace {

Trace mixed_trace(uint32_t seed) {
  TraceProfile prof = caida_like(seed);
  prof.num_flows = 900;
  Trace t = generate_trace(prof);
  std::mt19937 rng(seed);
  inject_syn_flood(t, ipv4(172, 16, 1, 2), 150, 1, 20'000'000, rng);
  inject_port_scan(t, ipv4(198, 18, 9, 9), ipv4(172, 16, 1, 3), 120,
                   50'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 1, 4), 90, 2, 80'000'000, rng);
  inject_super_spreader(t, ipv4(198, 18, 8, 8), 130, 110'000'000, rng);
  for (int i = 0; i < 70; ++i)
    emit_tcp_connection(t.packets, ipv4(10, 9, 0, 1 + i % 200),
                        ipv4(172, 16, 1, 5), static_cast<uint16_t>(30000 + i),
                        80, 1, 140'000'000 + 200'000ull * i, 5'000, rng);
  t.sort_by_time();
  return t;
}

// --- CQE equivalence over every single-branch query x stage budget -------
class CqeSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(CqeSweep, SlicedChainEqualsWholeSwitch) {
  const auto [qi, budget] = GetParam();
  QueryParams params;
  params.sketch_width = 1024;
  const Query q = all_queries(params)[static_cast<std::size_t>(qi)];
  ASSERT_EQ(q.branches.size(), 1u);
  const Trace t = mixed_trace(200 + static_cast<uint32_t>(qi));

  // Horizontal compilation: any budget is sliceable.
  CompileOptions opts;
  opts.opt3 = false;

  ReportBuffer ref_sink;
  NewtonSwitch ref(99, 64, &ref_sink);
  ref.install(compile_query(q, opts));

  const CompiledQuery cq = compile_query(q, opts);
  auto slices = slice_query(cq, budget);
  std::vector<RangeAllocator> central(budget,
                                      RangeAllocator(kStateBankRegisters));
  resolve_slice_offsets(slices, central);

  ReportBuffer chain_sink;
  std::vector<std::unique_ptr<NewtonSwitch>> chain;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    chain.push_back(std::make_unique<NewtonSwitch>(
        static_cast<uint32_t>(i), budget, &chain_sink));
    chain[i]->install_slice(slices[i], 7, false);
  }

  for (const Packet& p : t.packets) {
    ref.process(p);
    std::optional<SpHeader> sp;
    for (auto& sw : chain) {
      auto out = sw->process(p, sp);
      if (!out.sp_out.empty())
        sp = out.sp_out.front();
      else if (out.sp_consumed)
        sp.reset();
    }
    ASSERT_FALSE(sp.has_value());
  }

  ASSERT_EQ(chain_sink.size(), ref_sink.size()) << q.name;
  for (std::size_t i = 0; i < ref_sink.size(); ++i) {
    EXPECT_EQ(chain_sink.records()[i].oper_keys,
              ref_sink.records()[i].oper_keys);
    EXPECT_EQ(chain_sink.records()[i].ts_ns, ref_sink.records()[i].ts_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueriesAndBudgets, CqeSweep,
    ::testing::Combine(::testing::Values(0, 2, 3, 4, 6),  // single-branch Qs
                       ::testing::Values(3u, 5u, 8u)));

// --- Sketch geometry: wider rows can only help recall --------------------
class WidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WidthSweep, NoFalseNegativesAtAmpleWidth) {
  const std::size_t width = GetParam();
  QueryParams params;
  params.sketch_width = width;
  const Query q = make_q1(params);
  const Trace t = mixed_trace(300);

  Analyzer an;
  NewtonSwitch sw(1, 24, &an, 1 << 18);
  const auto res = sw.install(compile_query(q));
  an.register_qid_any(res.qids[0], q.name, 0);
  for (const Packet& p : t.packets) sw.process(p);

  const QueryTruth truth = exact_truth(q, t);
  const Accuracy acc = score(an.detected(q.name), truth.passing_union(0),
                             truth.passing_union(0));
  if (width >= (1u << 15)) {
    EXPECT_EQ(acc.fn, 0u);
  }
  EXPECT_GE(acc.recall(), 0.85);  // even starved widths keep most positives
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u << 11, 1u << 13, 1u << 15));

class DepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DepthSweep, AllDepthsAgreeWithTruthAtAmpleWidth) {
  QueryParams params;
  params.sketch_depth = GetParam();
  params.sketch_width = 1 << 15;
  const Query q = make_q4(params);
  const Trace t = mixed_trace(301);

  Analyzer an;
  NewtonSwitch sw(1, 48, &an, 1 << 18);
  const auto res = sw.install(compile_query(q));
  an.register_qid_any(res.qids[0], q.name, 0);
  for (const Packet& p : t.packets) sw.process(p);

  const QueryTruth truth = exact_truth(q, t);
  const Accuracy acc = score(an.detected(q.name), truth.passing_union(0),
                             truth.passing_union(0));
  EXPECT_EQ(acc.fn, 0u) << "depth " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep, ::testing::Values(1, 2, 3, 4));

// --- Every pair of queries coexists on one deep switch -------------------
class PairwiseInstall : public ::testing::TestWithParam<int> {};

TEST_P(PairwiseInstall, InstallRunRemove) {
  // Unrank the parameter into the (a, b) pair with a < b.
  int idx = GetParam(), a = 0;
  int remaining = 8;
  while (idx >= remaining) {
    idx -= remaining;
    --remaining;
    ++a;
  }
  const int b = a + 1 + idx;
  QueryParams params;
  params.sketch_width = 256;
  const auto qs = all_queries(params);
  NewtonSwitch sw(1, 64, nullptr, 1 << 16);
  Controller ctl(sw);
  ctl.install(qs[static_cast<std::size_t>(a)]);
  ctl.install(qs[static_cast<std::size_t>(b)]);
  // A little traffic through the pair.
  std::mt19937 rng(9);
  Trace t;
  inject_syn_flood(t, ipv4(172, 16, 9, 9), 50, 1, 0, rng);
  inject_udp_flood(t, ipv4(172, 16, 9, 8), 30, 2, 1'000'000, rng);
  t.sort_by_time();
  for (const Packet& p : t.packets) sw.process(p);
  ctl.remove(qs[static_cast<std::size_t>(a)].name);
  ctl.remove(qs[static_cast<std::size_t>(b)].name);
  EXPECT_EQ(sw.installed_rule_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, PairwiseInstall, ::testing::Range(0, 36));

}  // namespace
}  // namespace newton
