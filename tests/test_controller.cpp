// Controller: query lifecycle, multiplexing metrics (Fig. 16 regimes),
// register-range allocation behaviour, and the overlap rule the switch
// enforces on raw installs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/controller.h"
#include "core/queries.h"
#include "core/range_alloc.h"
#include "packet/packet.h"

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
    stage_marks.push_back(ctl.compiled(q.name)->max_stage() + 1);
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

using Records = std::vector<
    std::tuple<std::array<uint32_t, kNumFields>, uint32_t, uint64_t>>;

// q1's records (keys, state, timestamp), sorted, after a fixed mix on a
// 64-stage switch: 1,200 packets in one window, two thirds TCP SYNs from
// 3 sources to 11 destinations, the rest UDP.  `also` is installed after q1
// with `also_opts`, when given.
Records q1_records_beside(const Query* also, const CompileOptions& also_opts) {
  ReportBuffer sink;
  NewtonSwitch sw(1, 64, &sink);
  Controller ctl(sw);
  QueryParams p;
  p.sketch_width = 256;
  p.q1_syn_th = 8;
  const std::vector<uint16_t> q1_qids = ctl.install(make_q1(p)).qids;
  if (also) ctl.install(*also, also_opts);
  for (uint32_t i = 0; i < 1200; ++i) {
    const uint32_t sip = ipv4(10, 0, 0, 1 + i % 3);
    const uint32_t dip = ipv4(172, 16, 0, 1 + i % 11);
    sw.process(i % 3 == 2
                   ? make_packet(sip, dip, 4000 + i, 53, kProtoUdp, 0, 64,
                                 1000ull * i)
                   : make_packet(sip, dip, 4000 + i, 80, kProtoTcp, kTcpSyn,
                                 64, 1000ull * i));
  }
  Records out;
  for (const ReportRecord& r : sink.records())
    if (std::find(q1_qids.begin(), q1_qids.end(), r.qid) != q1_qids.end())
      out.emplace_back(r.oper_keys, r.state_result, r.ts_ns);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Controller, MixedOpt1QueriesChain) {
  // q5 compiled without Opt.1 keeps its UDP filter in K/R modules, so its
  // newton_init entry matches every packet and overlaps q1's.  It must
  // chain past q1 instead of rewriting q1's metadata set on every SYN.
  const auto alone = q1_records_beside(nullptr, {});
  ASSERT_EQ(alone.size(), 11u);
  CompileOptions no_opt1;
  no_opt1.opt1 = false;
  const Query q5 = make_q5();
  EXPECT_EQ(q1_records_beside(&q5, no_opt1), alone);
}

// q1 and q3 both watch every TCP SYN.  Installed raw on one switch, both
// at stage 0, the later one would rewrite the earlier one's metadata set,
// so the switch refuses it in either order and installs nothing of it.
// Through a Controller it chains, and q1 keeps its 11 records.
TEST(OverlapRule, RawInstallOfSharedTrafficIsRefused) {
  QueryParams p;
  p.sketch_width = 256;
  p.q1_syn_th = 8;
  p.q3_fanout_th = 4;
  const Query q1 = make_q1(p), q3 = make_q3(p);
  for (const bool q1_first : {true, false}) {
    SCOPED_TRACE(q1_first ? "q1 first" : "q3 first");
    NewtonSwitch sw(1, 64, nullptr);
    sw.install(compile_query(q1_first ? q1 : q3));
    const std::size_t rules = sw.installed_rule_count();
    const std::size_t qids = sw.free_qids();
    const std::size_t segments = sw.state_segments().size();
    try {
      sw.install(compile_query(q1_first ? q3 : q1));
      ADD_FAILURE() << "the second install was not refused";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "same-traffic branches overlap in stages: ", 0),
                0u)
          << e.what();
    }
    EXPECT_EQ(sw.num_installs(), 1u);
    EXPECT_EQ(sw.installed_rule_count(), rules);
    EXPECT_EQ(sw.free_qids(), qids);
    EXPECT_EQ(sw.state_segments().size(), segments);
  }
  const Records alone = q1_records_beside(nullptr, {});
  ASSERT_EQ(alone.size(), 11u);
  EXPECT_EQ(q1_records_beside(&q3, {}), alone);
}

// A compaction move installs a query's new copy beside the old one, so
// `replaces` exempts exactly the copy it names from the overlap rule.
TEST(OverlapRule, ReplacesExemptsOnlyTheNamedCopy) {
  QueryParams p;
  p.sketch_width = 256;
  NewtonSwitch sw(1, 24, nullptr);
  const CompiledQuery q1 = compile_query(make_q1(p));
  const uint64_t old = sw.install(q1).handle;
  EXPECT_THROW(sw.install(q1), std::invalid_argument);
  // UDP shares no traffic with q1, so it shares q1's stages.
  const uint64_t udp = sw.install(compile_query(make_q5(p))).handle;
  EXPECT_THROW(sw.install(q1, true, udp), std::invalid_argument);
  sw.install(q1, true, old);
  sw.remove(old);
  EXPECT_THROW(sw.install(q1), std::invalid_argument);
  EXPECT_EQ(sw.num_installs(), 2u);
}

}  // namespace
}  // namespace newton
