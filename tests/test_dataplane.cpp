// Data-plane substrate: ternary/config tables, register arrays + SALUs,
// pipeline resource accounting, rule-latency model.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "dataplane/match_table.h"
#include "dataplane/pipeline.h"
#include "dataplane/register_array.h"
#include "dataplane/resources.h"
#include "dataplane/rule_latency.h"

namespace newton {
namespace {

TEST(MatchWord, TernarySemantics) {
  const MatchWord w{0x00001100, 0x0000ff00};
  EXPECT_TRUE(w.matches(0x00001100));
  EXPECT_TRUE(w.matches(0xff0011ff));  // unmasked bits ignored
  EXPECT_FALSE(w.matches(0x00001200));
  EXPECT_TRUE(MatchWord::wildcard().matches(0xdeadbeef));
  EXPECT_TRUE(MatchWord::exact(5).matches(5));
  EXPECT_FALSE(MatchWord::exact(5).matches(6));
}

TEST(TernaryTable, PriorityWins) {
  TernaryTable<int> t(16);
  t.insert({MatchWord::wildcard()}, /*prio=*/0, 1);
  t.insert({MatchWord::exact(42)}, /*prio=*/10, 2);
  EXPECT_EQ(*t.lookup({42}), 2);
  EXPECT_EQ(*t.lookup({7}), 1);
}

TEST(TernaryTable, RemoveByHandle) {
  TernaryTable<int> t(16);
  const uint64_t h = t.insert({MatchWord::exact(1)}, 0, 9);
  EXPECT_NE(t.lookup({1}), nullptr);
  EXPECT_TRUE(t.remove(h));
  EXPECT_EQ(t.lookup({1}), nullptr);
  EXPECT_FALSE(t.remove(h));  // already gone
}

TEST(TernaryTable, CapacityEnforced) {
  TernaryTable<int> t(2);
  t.insert({MatchWord::exact(1)}, 0, 1);
  t.insert({MatchWord::exact(2)}, 0, 2);
  EXPECT_THROW(t.insert({MatchWord::exact(3)}, 0, 3), std::runtime_error);
}

TEST(TernaryTable, KeyArityMustMatch) {
  TernaryTable<int> t(4);
  t.insert({MatchWord::exact(1), MatchWord::exact(2)}, 0, 1);
  EXPECT_EQ(t.lookup({1}), nullptr);  // arity mismatch: no match
  EXPECT_NE(t.lookup({1, 2}), nullptr);
}

TEST(ConfigTable, InsertLookupRemove) {
  ConfigTable<int> t(4);
  t.insert(7, 99);
  ASSERT_NE(t.lookup(7), nullptr);
  EXPECT_EQ(*t.lookup(7), 99);
  t.insert(7, 100);  // overwrite does not consume capacity
  EXPECT_EQ(*t.lookup(7), 100);
  EXPECT_TRUE(t.remove(7));
  EXPECT_EQ(t.lookup(7), nullptr);
  EXPECT_FALSE(t.remove(7));
}

TEST(ConfigTable, CopyIsIndependent) {
  const auto rules = [](const ConfigTable<int>& t) {
    std::vector<std::pair<uint16_t, int>> out;
    t.for_each([&](uint16_t qid, int v) { out.emplace_back(qid, v); });
    return out;
  };
  ConfigTable<int> a(8);
  for (uint16_t q : {9, 2, 5, 30}) a.insert(q, 100 + q);
  ConfigTable<int> b(a);
  ConfigTable<int> c(8);
  c.insert(1, 1);
  c = a;
  // Each side mutates on its own: a swap-remove on one side must not move
  // a rule the other side's index points at.
  a.remove(2);
  a.insert(7, 7);
  b.remove(30);
  b.insert(5, 55);
  c.insert(40, 40);

  using Rules = std::vector<std::pair<uint16_t, int>>;
  EXPECT_EQ(rules(a), (Rules{{5, 105}, {7, 7}, {9, 109}, {30, 130}}));
  EXPECT_EQ(rules(b), (Rules{{2, 102}, {5, 55}, {9, 109}}));
  EXPECT_EQ(rules(c), (Rules{{2, 102}, {5, 105}, {9, 109}, {30, 130}, {40, 40}}));
  EXPECT_EQ(a.lookup(2), nullptr);
  EXPECT_EQ(*b.lookup(2), 102);
  EXPECT_EQ(*a.lookup(30), 130);
  EXPECT_EQ(b.lookup(30), nullptr);
  EXPECT_EQ(*b.lookup(5), 55);
  EXPECT_EQ(*c.lookup(5), 105);
  EXPECT_EQ(c.lookup(1), nullptr);
  EXPECT_EQ(c.lookup(7), nullptr);
  EXPECT_EQ(a.lookup(40), nullptr);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(c.size(), 5u);
}

TEST(ConfigTable, CapacityEnforced) {
  ConfigTable<int> t(2);
  t.insert(1, 1);
  t.insert(2, 2);
  EXPECT_THROW(t.insert(3, 3), std::runtime_error);
}

TEST(RegisterArray, SaluSemantics) {
  RegisterArray r(8);
  EXPECT_EQ(r.execute(SaluOp::Read, 0, 0), 0u);
  EXPECT_EQ(r.execute(SaluOp::Add, 0, 5), 5u);    // Add returns NEW value
  EXPECT_EQ(r.execute(SaluOp::Add, 0, 2), 7u);
  EXPECT_EQ(r.execute(SaluOp::Write, 1, 9), 0u);  // Write returns OLD value
  EXPECT_EQ(r.read(1), 9u);
  EXPECT_EQ(r.execute(SaluOp::Or, 2, 1), 0u);     // Or returns OLD value
  EXPECT_EQ(r.execute(SaluOp::Or, 2, 1), 1u);     // second or sees the bit
  EXPECT_EQ(r.read(2), 1u);
}

TEST(RegisterArray, ResetAndBounds) {
  RegisterArray r(4);
  r.execute(SaluOp::Add, 3, 10);
  r.reset();
  EXPECT_EQ(r.read(3), 0u);
  EXPECT_THROW(r.execute(SaluOp::Read, 4, 0), std::out_of_range);
  EXPECT_THROW(RegisterArray(0), std::invalid_argument);
}

TEST(RegisterArray, MergeAddCombinesCountMinRows) {
  // Two shards each counted a disjoint share of the stream; Add-merge must
  // equal the single-shard counters.
  RegisterArray a(8), b(8), whole(8);
  for (int i = 0; i < 10; ++i) {
    RegisterArray& shard = (i % 2 == 0) ? a : b;
    shard.execute(SaluOp::Add, static_cast<std::size_t>(i % 3), 1);
    whole.execute(SaluOp::Add, static_cast<std::size_t>(i % 3), 1);
  }
  a.merge_from(b, MergeOp::Add);
  for (std::size_t i = 0; i < whole.size(); ++i)
    EXPECT_EQ(a.read(i), whole.read(i)) << "slot " << i;
}

TEST(RegisterArray, MergeOrCombinesBloomBanks) {
  RegisterArray a(8), b(8);
  a.execute(SaluOp::Or, 1, 1);
  b.execute(SaluOp::Or, 1, 1);  // same bit on both shards stays one bit
  b.execute(SaluOp::Or, 5, 1);
  a.merge_from(b, MergeOp::Or);
  EXPECT_EQ(a.read(1), 1u);
  EXPECT_EQ(a.read(5), 1u);
  EXPECT_EQ(a.read(0), 0u);
}

TEST(RegisterArray, MergeMaxKeepsLargestObservation) {
  RegisterArray a(4), b(4);
  a.execute(SaluOp::Write, 0, 7);
  b.execute(SaluOp::Write, 0, 3);
  b.execute(SaluOp::Write, 2, 9);
  a.merge_from(b, MergeOp::Max);
  EXPECT_EQ(a.read(0), 7u);
  EXPECT_EQ(a.read(2), 9u);
}

TEST(RegisterArray, MergeRangeTouchesOnlyTheSegment) {
  RegisterArray a(8), b(8);
  for (std::size_t i = 0; i < 8; ++i) b.execute(SaluOp::Add, i, 2);
  a.merge_range_from(b, /*offset=*/2, /*width=*/3, MergeOp::Add);
  EXPECT_EQ(a.read(1), 0u);
  EXPECT_EQ(a.read(2), 2u);
  EXPECT_EQ(a.read(4), 2u);
  EXPECT_EQ(a.read(5), 0u);
  // Out-of-range tails are clamped, mismatched sizes rejected.
  a.merge_range_from(b, 6, 100, MergeOp::Add);
  EXPECT_EQ(a.read(7), 2u);
  RegisterArray small(4);
  EXPECT_THROW(a.merge_from(small, MergeOp::Add), std::invalid_argument);
}

// Clamp semantics for the range operations, pinned edge by edge: callers
// (query slice allocation, shard fold) size ranges optimistically and rely
// on out-of-range tails degrading to no-ops rather than throwing or — the
// historical bug — wrapping when offset + width overflows size_t.
TEST(RegisterArray, RangeClampEdges) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  RegisterArray a(4), b(4);
  for (std::size_t i = 0; i < 4; ++i) b.execute(SaluOp::Add, i, 5);

  // offset exactly at the end: no-op, not a throw.
  a.merge_range_from(b, /*offset=*/4, /*width=*/2, MergeOp::Add);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.read(i), 0u);
  // offset far past the end: also a no-op.
  a.merge_range_from(b, /*offset=*/100, /*width=*/1, MergeOp::Add);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.read(i), 0u);
  // width == 0: merges nothing even at a valid offset.
  a.merge_range_from(b, /*offset=*/1, /*width=*/0, MergeOp::Add);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.read(i), 0u);
  // offset + width overflowing size_t must clamp to the tail, not wrap to
  // an empty (or worse, arbitrary) range.
  a.merge_range_from(b, /*offset=*/2, /*width=*/kMax, MergeOp::Add);
  EXPECT_EQ(a.read(0), 0u);
  EXPECT_EQ(a.read(1), 0u);
  EXPECT_EQ(a.read(2), 5u);
  EXPECT_EQ(a.read(3), 5u);

  // Same clamps for clear_range.
  RegisterArray c(4);
  for (std::size_t i = 0; i < 4; ++i) c.execute(SaluOp::Add, i, 7);
  c.clear_range(/*offset=*/4, /*width=*/kMax);  // at end: no-op
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(c.read(i), 7u);
  c.clear_range(/*offset=*/1, /*width=*/0);  // zero width: no-op
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(c.read(i), 7u);
  c.clear_range(/*offset=*/3, /*width=*/kMax);  // overflow: clamp to tail
  EXPECT_EQ(c.read(2), 7u);
  EXPECT_EQ(c.read(3), 0u);
}

TEST(Resources, ArithmeticAndNormalization) {
  ResourceVec a{10, 20, 30, 4, 5, 1, 2};
  ResourceVec b{1, 2, 3, 1, 1, 1, 1};
  const ResourceVec sum = a + b;
  EXPECT_DOUBLE_EQ(sum.crossbar_bytes, 11);
  EXPECT_DOUBLE_EQ(sum.sram_kb, 22);
  const ResourceVec scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled.tcam_kb, 60);
  const ResourceVec norm = a.normalized_by(ResourceVec{100, 100, 100, 100, 100, 100, 100});
  EXPECT_DOUBLE_EQ(norm.crossbar_bytes, 0.10);
  EXPECT_DOUBLE_EQ(norm.vliw_slots, 0.04);
}

TEST(Resources, FitsWith) {
  const ResourceVec cap = stage_capacity();
  ResourceVec used;
  EXPECT_TRUE(used.fits_with(cap, cap));
  EXPECT_FALSE(cap.fits_with(ResourceVec{1, 0, 0, 0, 0, 0, 0}, cap));
}

class StageCapacityCheck : public ::testing::Test {
 protected:
  struct FatTable : TableProgram {
    ResourceVec r;
    void execute(Phv&) override {}
    ResourceVec resources() const override { return r; }
    std::string name() const override { return "fat"; }
    std::shared_ptr<TableProgram> clone() const override {
      return std::make_shared<FatTable>(*this);
    }
  };
};

TEST_F(StageCapacityCheck, StageRejectsOverflow) {
  Stage s;
  auto t = std::make_shared<FatTable>();
  t->r.salus = 3;
  s.add(t);
  auto t2 = std::make_shared<FatTable>();
  t2->r.salus = 2;  // 3 + 2 > 4 per-stage SALUs
  EXPECT_THROW(s.add(t2), std::runtime_error);
  EXPECT_THROW(s.add(nullptr), std::invalid_argument);
}

TEST(Pipeline, ProcessesStagesInOrder) {
  struct Tagger : TableProgram {
    uint32_t tag;
    explicit Tagger(uint32_t t) : tag(t) {}
    void execute(Phv& phv) override {
      phv.global_result = phv.global_result * 10 + tag;
    }
    ResourceVec resources() const override { return {}; }
    std::string name() const override { return "tag"; }
    std::shared_ptr<TableProgram> clone() const override {
      return std::make_shared<Tagger>(*this);
    }
  };
  Pipeline p(3);
  p.stage(0).add(std::make_shared<Tagger>(1));
  p.stage(1).add(std::make_shared<Tagger>(2));
  p.stage(2).add(std::make_shared<Tagger>(3));
  Phv phv;
  p.process_burst(&phv, 1);
  EXPECT_EQ(phv.global_result, 123u);
}

TEST(RuleLatency, CalibratedRange) {
  RuleLatencyModel m(1);
  for (int i = 0; i < 1000; ++i) {
    const double ms = m.sample_rule_op_ms();
    EXPECT_GE(ms, 0.2);
    EXPECT_LE(ms, 3.0);
  }
  // A Q1-sized batch (~8 rules) lands in the 5-20ms envelope of Fig. 11.
  RuleLatencyModel m2(2);
  for (int i = 0; i < 100; ++i) {
    const double ms = m2.batch_ms(8);
    EXPECT_GT(ms, 2.0);
    EXPECT_LT(ms, 26.0);
  }
}

TEST(RuleLatency, DeterministicPerSeed) {
  RuleLatencyModel a(7), b(7);
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(a.sample_rule_op_ms(), b.sample_rule_op_ms());
}

}  // namespace
}  // namespace newton
