// Controller: query lifecycle, multiplexing metrics (Fig. 16 regimes),
// register-range allocation behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "core/controller.h"
#include "core/queries.h"
#include "core/range_alloc.h"

namespace newton {
namespace {

TEST(RangeAlloc, FirstFitAndFree) {
  RangeAllocator a(100);
  const auto o1 = a.allocate(40);
  const auto o2 = a.allocate(40);
  ASSERT_TRUE(o1 && o2);
  EXPECT_EQ(*o1, 0u);
  EXPECT_EQ(*o2, 40u);
  EXPECT_FALSE(a.allocate(40).has_value());  // only 20 left
  EXPECT_TRUE(a.free(*o1));
  const auto o3 = a.allocate(30);  // fits the freed hole
  ASSERT_TRUE(o3);
  EXPECT_EQ(*o3, 0u);
  EXPECT_EQ(a.used(), 70u);
}

TEST(RangeAlloc, ReserveExact) {
  RangeAllocator a(100);
  EXPECT_TRUE(a.reserve(50, 20));
  EXPECT_FALSE(a.reserve(60, 20));  // overlap
  EXPECT_FALSE(a.reserve(40, 20));  // overlap from below
  EXPECT_TRUE(a.reserve(70, 30));
  EXPECT_FALSE(a.reserve(90, 20));  // out of capacity
  const auto o = a.allocate(50);
  ASSERT_TRUE(o);
  EXPECT_EQ(*o, 0u);
}

TEST(RangeAlloc, ZeroAndOversize) {
  RangeAllocator a(10);
  EXPECT_FALSE(a.allocate(0).has_value());
  EXPECT_FALSE(a.allocate(11).has_value());
  EXPECT_FALSE(a.reserve(0, 0));
  EXPECT_FALSE(a.free(5));
}

TEST(RangeAlloc, ReserveOverflowDoesNotWrap) {
  RangeAllocator a(100);
  // offset + width wraps around SIZE_MAX to a tiny sum; the naive
  // `offset + width > capacity` bound check accepted these.
  EXPECT_FALSE(a.reserve(SIZE_MAX, 2));
  EXPECT_FALSE(a.reserve(SIZE_MAX - 1, 4));
  EXPECT_FALSE(a.reserve(2, SIZE_MAX - 1));
  EXPECT_EQ(a.used(), 0u);

  // Exact-boundary reservations still work.
  EXPECT_FALSE(a.reserve(100, 1));  // one past the end
  EXPECT_TRUE(a.reserve(99, 1));    // last register
  EXPECT_TRUE(a.reserve(0, 99));    // fills the remainder exactly
  EXPECT_EQ(a.used(), 100u);
  EXPECT_FALSE(a.allocate(1).has_value());
}

TEST(RangeAlloc, AllocateBoundaries) {
  RangeAllocator a(10);
  EXPECT_FALSE(a.allocate(SIZE_MAX).has_value());
  const auto whole = a.allocate(10);  // full capacity in one slice
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, 0u);
  EXPECT_FALSE(a.allocate(1).has_value());
  EXPECT_TRUE(a.free(*whole));
  EXPECT_EQ(a.used(), 0u);

  // First fit lands flush against capacity when only the tail hole is left.
  ASSERT_TRUE(a.reserve(0, 9));
  const auto tail = a.allocate(1);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, 9u);
}

TEST(RangeAlloc, FragmentationSoak10kOps) {
  // Randomized reserve/release soak against a shadow model: after every
  // operation the allocator's map must match the shadow exactly (no
  // overlap, no leak), used()/free_total() must stay exact, and
  // largest_free_block() must equal the widest gap the shadow sees —
  // the fragmentation gauges (docs/admission.md) are built on it.
  constexpr std::size_t kCap = 4096;
  RangeAllocator a(kCap);
  std::map<std::size_t, std::size_t> shadow;  // offset -> width
  std::mt19937 rng(20'260'809);

  const auto shadow_used = [&] {
    std::size_t n = 0;
    for (const auto& [o, w] : shadow) n += w;
    return n;
  };
  const auto shadow_largest_gap = [&] {
    std::size_t best = 0, cursor = 0;
    for (const auto& [o, w] : shadow) {
      best = std::max(best, o - cursor);
      cursor = o + w;
    }
    return std::max(best, kCap - cursor);
  };
  const auto shadow_overlaps = [&](std::size_t off, std::size_t w) {
    if (off + w > kCap || w == 0) return true;
    const auto nxt = shadow.lower_bound(off);
    if (nxt != shadow.end() && nxt->first < off + w) return true;
    if (nxt != shadow.begin()) {
      const auto prev = std::prev(nxt);
      if (prev->first + prev->second > off) return true;
    }
    return false;
  };

  for (int op = 0; op < 10'000; ++op) {
    switch (rng() % 3) {
      case 0: {  // first-fit allocate
        const std::size_t w = 1 + rng() % 96;
        const auto got = a.allocate(w);
        if (got) {
          ASSERT_FALSE(shadow_overlaps(*got, w))
              << "op " << op << ": allocate overlapped at " << *got;
          shadow[*got] = w;
        } else {
          ASSERT_LT(shadow_largest_gap(), w)
              << "op " << op << ": allocate failed but a gap fit";
        }
        break;
      }
      case 1: {  // reserve an arbitrary range
        const std::size_t off = rng() % kCap;
        const std::size_t w = 1 + rng() % 96;
        const bool ok = a.reserve(off, w);
        ASSERT_EQ(ok, !shadow_overlaps(off, w)) << "op " << op;
        if (ok) shadow[off] = w;
        break;
      }
      case 2: {  // free a live range (or a bogus offset)
        if (!shadow.empty() && rng() % 8 != 0) {
          auto it = shadow.begin();
          std::advance(it, rng() % shadow.size());
          ASSERT_TRUE(a.free(it->first)) << "op " << op;
          shadow.erase(it);
        } else {
          // An offset that is not an allocation start must be refused.
          const std::size_t off = rng() % kCap;
          if (!shadow.contains(off)) {
            ASSERT_FALSE(a.free(off));
          }
        }
        break;
      }
    }
    ASSERT_EQ(a.allocations(), shadow) << "op " << op;
    ASSERT_EQ(a.used(), shadow_used()) << "op " << op;
    ASSERT_EQ(a.free_total(), kCap - shadow_used()) << "op " << op;
    ASSERT_EQ(a.largest_free_block(), shadow_largest_gap()) << "op " << op;
  }
  // Drain: everything frees, accounting returns to pristine.
  for (const auto& [o, w] : shadow) ASSERT_TRUE(a.free(o));
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.largest_free_block(), kCap);
}

TEST(Controller, InstallRemoveLifecycle) {
  NewtonSwitch sw(1, 12, nullptr);
  Controller ctl(sw);
  const auto st = ctl.install(make_q1());
  EXPECT_GT(st.rule_ops, 0u);
  EXPECT_TRUE(ctl.installed("q1_new_tcp"));
  EXPECT_THROW(ctl.install(make_q1()), std::invalid_argument);  // duplicate
  const auto rm = ctl.remove("q1_new_tcp");
  EXPECT_GT(rm.latency_ms, 0.0);
  EXPECT_FALSE(ctl.installed("q1_new_tcp"));
  EXPECT_THROW(ctl.remove("nope"), std::invalid_argument);
}

TEST(Controller, OperationsCompleteWithinPaperEnvelope) {
  // Fig. 11: every query installs/removes in <= ~20 ms.  (24 stages so even
  // Q8's serialized sub-queries fit without CQE; latency is the subject.)
  NewtonSwitch sw(1, 24, nullptr, 1 << 16);
  Controller ctl(sw);
  QueryParams p;
  p.sketch_width = 512;
  for (const Query& q : all_queries(p)) {
    const auto ins = ctl.install(q);
    EXPECT_LT(ins.latency_ms, 30.0) << q.name;
    const auto rm = ctl.remove(q.name);
    EXPECT_LT(rm.latency_ms, 30.0) << q.name;
  }
}

// Fig. 16 regimes: P-Newton (disjoint traffic) multiplexes module slots;
// S-Newton (same traffic) chains and grows linearly.
TEST(Controller, PNewtonSlotsStayConstant) {
  NewtonSwitch sw(1, 12, nullptr, 1 << 18);
  Controller ctl(sw);
  QueryParams p;
  p.sketch_width = 128;
  std::size_t slots_after_first = 0;
  for (int i = 0; i < 8; ++i) {
    // Same Q4 logic but watching disjoint destination ports.
    Query q = QueryBuilder("scan" + std::to_string(i))
                  .sketch(p.sketch_depth, p.sketch_width)
                  .filter(Predicate{}
                              .where(Field::Proto, Cmp::Eq, kProtoTcp)
                              .where(Field::DstPort, Cmp::Eq,
                                     static_cast<uint32_t>(1000 + i)))
                  .map({Field::SrcIp, Field::DstPort})
                  .distinct({Field::SrcIp, Field::DstPort})
                  .map({Field::SrcIp})
                  .reduce({Field::SrcIp}, Agg::Sum)
                  .when(Cmp::Ge, 50)
                  .build();
    ctl.install(q);
    if (i == 0) slots_after_first = sw.slots_used();
  }
  EXPECT_EQ(sw.slots_used(), slots_after_first);  // rules multiplex slots
}

TEST(Controller, SNewtonStagesGrowLinearly) {
  NewtonSwitch sw(1, 64, nullptr, 1 << 18);  // deep virtual pipeline
  Controller ctl(sw);
  QueryParams p;
  p.sketch_width = 128;
  std::vector<std::size_t> stage_marks;
  for (int i = 0; i < 3; ++i) {
    Query q = make_q1(p);
    q.name += std::to_string(i);  // same traffic class every time
    ctl.install(q);
    stage_marks.push_back(sw.next_free_stage());
  }
  EXPECT_GT(stage_marks[1], stage_marks[0]);
  EXPECT_GT(stage_marks[2], stage_marks[1]);
  // Roughly linear growth.
  EXPECT_NEAR(static_cast<double>(stage_marks[2] - stage_marks[1]),
              static_cast<double>(stage_marks[1] - stage_marks[0]), 1.0);
}

TEST(Controller, FailedUpdateReinstatesOldQuery) {
  // Atomicity regression: the update's new compilation is rejected by the
  // switch (its register demand exceeds the state bank), which happens
  // AFTER the old rules were pulled — the controller must reinstate them so
  // a failed update never loses the running query.
  NewtonSwitch sw(1, 12, nullptr, /*bank_registers=*/1 << 13);
  Controller ctl(sw);
  QueryParams small;
  small.sketch_width = 256;
  ctl.install(make_q1(small));
  const std::size_t rules_before = sw.installed_rule_count();
  const std::size_t slots_before = sw.slots_used();

  QueryParams huge;
  huge.sketch_width = 1 << 14;  // cannot fit in an 8K-register bank
  EXPECT_THROW(ctl.update("q1_new_tcp", make_q1(huge)), std::runtime_error);

  // Old query still installed and byte-identical in footprint.
  EXPECT_TRUE(ctl.installed("q1_new_tcp"));
  EXPECT_EQ(ctl.num_installed(), 1u);
  EXPECT_EQ(sw.installed_rule_count(), rules_before);
  EXPECT_EQ(sw.slots_used(), slots_before);

  // And the reinstated rules are live: a later legitimate update works.
  QueryParams ok;
  ok.sketch_width = 512;
  ctl.update("q1_new_tcp", make_q1(ok));
  EXPECT_TRUE(ctl.installed("q1_new_tcp"));
}

TEST(Controller, UpdatePreservesName) {
  NewtonSwitch sw(1, 12, nullptr);
  Controller ctl(sw);
  ctl.install(make_q1());
  QueryParams p;
  p.q1_syn_th = 5;
  ctl.update("q1_new_tcp", make_q1(p));
  EXPECT_TRUE(ctl.installed("q1_new_tcp"));
  EXPECT_EQ(ctl.num_installed(), 1u);
}

}  // namespace
}  // namespace newton
