// Cross-switch query execution: slicing, SP carry analysis, multi-switch
// equivalence with single-switch execution, and software deferral.
#include <gtest/gtest.h>

#include "analyzer/deferred.h"
#include "core/cqe.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "trace/attacks.h"

namespace newton {
namespace {

Trace small_attack_trace() {
  std::mt19937 rng(41);
  Trace t;
  for (int i = 0; i < 30; ++i)
    emit_tcp_connection(t.packets, ipv4(10, 0, 0, 1 + i), ipv4(172, 16, 0, 9),
                        static_cast<uint16_t>(40000 + i), 443, 2,
                        10'000ull * i, 10'000, rng);
  inject_syn_flood(t, ipv4(172, 16, 3, 3), 150, 1, 2'000'000, rng);
  t.sort_by_time();
  return t;
}

TEST(SliceQuery, CoversAllModulesExactlyOnce) {
  const CompiledQuery cq = compile_query(make_q1());
  const auto slices = slice_query(cq, 3);
  ASSERT_GE(slices.size(), 2u);
  std::size_t total = 0;
  for (const auto& sl : slices) {
    EXPECT_LE(sl.part.max_stage() + 1, 3u);
    total += sl.part.num_modules();
  }
  // Duplicated K re-derivation may add modules but never drop any.
  EXPECT_GE(total, cq.num_modules());
  EXPECT_EQ(slices.front().index, 0u);
  EXPECT_TRUE(slices.back().final_slice);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].index, i);
    EXPECT_EQ(slices[i].total, slices.size());
  }
}

TEST(SliceQuery, SingleSliceWhenItFits) {
  const CompiledQuery cq = compile_query(make_q1());
  const auto slices = slice_query(cq, 12);
  EXPECT_EQ(slices.size(), 1u);
  EXPECT_TRUE(slices[0].final_slice);
}

TEST(SliceQuery, RejectsMultiBranchQueries) {
  const CompiledQuery cq = compile_query(make_q6());
  EXPECT_THROW(slice_query(cq, 3), std::invalid_argument);
  EXPECT_THROW(slice_query(compile_query(make_q1()), 0),
               std::invalid_argument);
}

TEST(SliceQuery, CentralOffsetsConsistent) {
  const CompiledQuery cq = compile_query(make_q1());
  auto slices = slice_query(cq, 3);
  std::vector<RangeAllocator> central(3, RangeAllocator(kStateBankRegisters));
  resolve_slice_offsets(slices, central);
  // Every stateful S got a width and a register range inside the bank.
  for (const auto& sl : slices)
    for (const auto& b : sl.part.branches)
      for (const auto& m : b.modules) {
        if (m.type == ModuleType::S && !m.s.bypass) {
          EXPECT_GT(m.alloc_width, 0u);
          EXPECT_LE(m.alloc_offset + m.alloc_width, kStateBankRegisters);
          EXPECT_EQ(m.s.index_base, m.alloc_offset);
        }
      }
}

// The heart of CQE: a query sliced over a chain of small switches must
// produce exactly the reports of one big switch.
class CqeEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CqeEquivalence, ChainMatchesSingleSwitch) {
  const std::size_t stages_per_switch = GetParam();
  const Trace t = small_attack_trace();
  const Query q1 = make_q1();

  // Reference: one 12-stage switch.
  ReportBuffer ref_sink;
  NewtonSwitch ref(99, 12, &ref_sink);
  ref.install(compile_query(q1));

  // Chain: M small switches, slices installed in order.
  const CompiledQuery cq = compile_query(q1);
  auto slices = slice_query(cq, stages_per_switch);
  std::vector<RangeAllocator> central(stages_per_switch,
                                      RangeAllocator(kStateBankRegisters));
  resolve_slice_offsets(slices, central);

  ReportBuffer chain_sink;
  std::vector<std::unique_ptr<NewtonSwitch>> chain;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    chain.push_back(std::make_unique<NewtonSwitch>(
        static_cast<uint32_t>(i), stages_per_switch, &chain_sink));
    chain[i]->install_slice(slices[i], /*uid=*/7, /*resolve=*/false);
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
    EXPECT_FALSE(sp.has_value());  // chain long enough: nothing deferred
  }

  ASSERT_EQ(chain_sink.size(), ref_sink.size());
  for (std::size_t i = 0; i < ref_sink.size(); ++i) {
    EXPECT_EQ(chain_sink.records()[i].oper_keys, ref_sink.records()[i].oper_keys);
    EXPECT_EQ(chain_sink.records()[i].global_result,
              ref_sink.records()[i].global_result);
  }
}

INSTANTIATE_TEST_SUITE_P(StageBudgets, CqeEquivalence,
                         ::testing::Values(2, 3, 4, 6));

TEST(Cqe, ReportsOnlyFromFinalSlice) {
  const Trace t = small_attack_trace();
  const CompiledQuery cq = compile_query(make_q1());
  auto slices = slice_query(cq, 3);
  std::vector<RangeAllocator> central(3, RangeAllocator(kStateBankRegisters));
  resolve_slice_offsets(slices, central);

  std::vector<ReportBuffer> sinks(slices.size());
  std::vector<std::unique_ptr<NewtonSwitch>> chain;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    chain.push_back(std::make_unique<NewtonSwitch>(
        static_cast<uint32_t>(i), 3, &sinks[i]));
    chain[i]->install_slice(slices[i], 7, false);
  }
  for (const Packet& p : t.packets) {
    std::optional<SpHeader> sp;
    for (auto& sw : chain) {
      auto out = sw->process(p, sp);
      if (!out.sp_out.empty()) sp = out.sp_out.front();
      else if (out.sp_consumed) sp.reset();
    }
  }
  for (std::size_t i = 0; i + 1 < slices.size(); ++i)
    EXPECT_EQ(sinks[i].size(), 0u) << "non-final slice " << i << " reported";
  EXPECT_GT(sinks.back().size(), 0u);
}

TEST(Cqe, DeferredSoftwareContinuationMatchesHardware) {
  const Trace t = small_attack_trace();
  const Query q1 = make_q1();

  // Reference: full hardware chain.
  ReportBuffer ref_sink;
  NewtonSwitch ref(99, 12, &ref_sink);
  ref.install(compile_query(q1));

  // Path with only ONE 3-stage switch: the rest defers to software.
  const CompiledQuery cq = compile_query(q1);
  auto slices = slice_query(cq, 3);
  ASSERT_GE(slices.size(), 2u);
  std::vector<RangeAllocator> central(3, RangeAllocator(kStateBankRegisters));
  resolve_slice_offsets(slices, central);

  ReportBuffer sw_sink;  // must stay empty: slice 0 is not final
  NewtonSwitch hw(1, 3, &sw_sink);
  hw.install_slice(slices[0], 7, false);

  ReportBuffer soft_sink;
  SoftwarePlane software(&soft_sink, /*virtual_stages=*/16);
  software.install_remaining(slices, 1, 7);

  for (const Packet& p : t.packets) {
    ref.process(p);
    auto out = hw.process(p, std::nullopt);
    if (!out.sp_out.empty()) software.process(p, out.sp_out.front());
  }
  EXPECT_EQ(sw_sink.size(), 0u);
  ASSERT_EQ(soft_sink.size(), ref_sink.size());
  for (std::size_t i = 0; i < ref_sink.size(); ++i)
    EXPECT_EQ(soft_sink.records()[i].oper_keys, ref_sink.records()[i].oper_keys);
}

TEST(Cqe, SpHeaderPassesThroughNonHostingSwitch) {
  const CompiledQuery cq = compile_query(make_q1());
  auto slices = slice_query(cq, 3);
  std::vector<RangeAllocator> central(3, RangeAllocator(kStateBankRegisters));
  resolve_slice_offsets(slices, central);

  ReportBuffer sink;
  NewtonSwitch first(1, 3, &sink), blank(2, 3, &sink), second(3, 3, &sink);
  first.install_slice(slices[0], 7, false);
  second.install_slice(slices[1], 7, false);

  const Packet p = make_packet(1, 2, 3, 80, kProtoTcp, kTcpSyn);
  auto out1 = first.process(p, std::nullopt);
  ASSERT_EQ(out1.sp_out.size(), 1u);
  const SpHeader sp = out1.sp_out.front();
  // A switch without the successor slice forwards the header untouched.
  auto out_blank = blank.process(p, sp);
  EXPECT_FALSE(out_blank.sp_consumed);
  EXPECT_TRUE(out_blank.sp_out.empty());
  auto out2 = second.process(p, sp);
  EXPECT_TRUE(out2.sp_consumed);
}

}  // namespace
}  // namespace newton
