// Sonata dynamic-refinement baseline: ladder mechanics and the detection
// latency contrast with Newton's directly-installed query.
#include <gtest/gtest.h>

#include "analyzer/analyzer.h"
#include "baselines/sonata_refinement.h"
#include "core/compose.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "core/window.h"
#include "trace/attacks.h"

namespace newton {
namespace {

// A SYN flood on one victim sustained across `windows` 100ms windows.
Trace sustained_flood(uint32_t victim, int windows, std::size_t per_window) {
  Trace t;
  std::mt19937 rng(71);
  for (int w = 0; w < windows; ++w)
    inject_syn_flood(t, victim, per_window, 1,
                     static_cast<uint64_t>(w) * 100'000'000 + 1'000'000, rng);
  t.sort_by_time();
  return t;
}

TEST(Refinement, ZoomsOneLevelPerWindow) {
  const uint32_t victim = ipv4(172, 16, 50, 7);
  const Trace t = sustained_flood(victim, 6, 120);
  SonataRefinement ref({8, 16, 24, 32}, /*threshold=*/100);
  const auto detections = ref.run(t);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].dip, victim);
  EXPECT_EQ(detections[0].first_window, 0u);
  // /8 flags in window 0; /16, /24, /32 need one window each.
  EXPECT_EQ(detections[0].window, 3u);
}

TEST(Refinement, MissesShortLivedAttacks) {
  // The flood lasts a single window: by the time the ladder reaches /32,
  // the attack is gone — the refinement never pins the victim.
  const uint32_t victim = ipv4(172, 16, 50, 8);
  const Trace t = sustained_flood(victim, 1, 200);
  SonataRefinement ref({8, 16, 24, 32}, 100);
  EXPECT_TRUE(ref.run(t).empty());
}

TEST(Refinement, ShallowLadderDetectsFaster) {
  const uint32_t victim = ipv4(172, 16, 50, 9);
  const Trace t = sustained_flood(victim, 6, 120);
  SonataRefinement deep({8, 16, 24, 32}, 100);
  SonataRefinement shallow({16, 32}, 100);
  const auto d = deep.run(t);
  const auto s = shallow.run(t);
  ASSERT_EQ(d.size(), 1u);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_LT(s[0].window, d[0].window);
}

TEST(Refinement, SeparatesConcurrentVictimsUnderSamePrefix) {
  Trace t;
  std::mt19937 rng(72);
  const uint32_t v1 = ipv4(172, 16, 60, 1), v2 = ipv4(172, 16, 60, 2);
  for (int w = 0; w < 6; ++w) {
    inject_syn_flood(t, v1, 120, 1,
                     static_cast<uint64_t>(w) * 100'000'000 + 1'000'000, rng);
    inject_syn_flood(t, v2, 120, 1,
                     static_cast<uint64_t>(w) * 100'000'000 + 2'000'000, rng);
  }
  t.sort_by_time();
  SonataRefinement ref({8, 16, 24, 32}, 100);
  const auto detections = ref.run(t);
  std::set<uint32_t> dips;
  for (const auto& d : detections) dips.insert(d.dip);
  EXPECT_TRUE(dips.contains(v1));
  EXPECT_TRUE(dips.contains(v2));
}

TEST(Refinement, NewtonDetectsInTheFirstWindow) {
  // The headline contrast: Newton installs the precise intent at runtime
  // and reports within the first window; the refinement ladder takes one
  // window per level.
  const uint32_t victim = ipv4(172, 16, 50, 10);
  const Trace t = sustained_flood(victim, 6, 120);

  QueryParams p;
  p.q1_syn_th = 100;
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  sw.install(compile_query(make_q1(p)));
  for (const Packet& pk : t.packets) sw.process(pk);
  ASSERT_GT(sink.size(), 0u);
  EXPECT_EQ(window_of(sink.records()[0].ts_ns, kDefaultWindowNs), 0u);

  SonataRefinement ref({8, 16, 24, 32}, 100);
  const auto detections = ref.run(t);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_GT(detections[0].window, 0u);
}

}  // namespace
}  // namespace newton
