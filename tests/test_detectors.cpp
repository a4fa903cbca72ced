// Real-detector scenario library (src/detectors/): every detector is scored
// on the committed labeled corpus fixture (tests/corpus/detectors.pcap)
// against its precision/recall bounds, through the full live path — a
// streaming PcapFileSource into the sharded runtime — at 1 and 4 shards,
// which must agree.
//
// Regenerating the fixture and the det_*.nds difftest seeds (after changing
// make_labeled_attack_trace or the detector library):
//
//   NEWTON_REGEN_FIXTURE=1 ./tests/test_detectors
//
// rewrites tests/corpus/detectors.pcap and tests/corpus/det_<id>.nds in the
// source tree, then runs the assertions against the fresh artifacts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/dump.h"
#include "core/newton_switch.h"
#include "core/parse_query.h"
#include "detectors/detector.h"
#include "difftest/scenario.h"
#include "ingest/pcap_source.h"
#include "ingest/pump.h"
#include "runtime/shard_hash.h"
#include "runtime/sharded_runtime.h"
#include "trace/attacks.h"
#include "trace/pcap.h"

#ifndef NEWTON_CORPUS_DIR
#define NEWTON_CORPUS_DIR "tests/corpus"
#endif

namespace newton {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kFixtureSeed = 42;
constexpr std::size_t kFixtureFlows = 20;  // background; sized to stay <100KB
constexpr std::size_t kFixtureBudgetBytes = 100'000;

std::string fixture_path() {
  return (fs::path(NEWTON_CORPUS_DIR) / "detectors.pcap").string();
}

std::string seed_path(const std::string& id) {
  return (fs::path(NEWTON_CORPUS_DIR) / ("det_" + id + ".nds")).string();
}

// One difftest seed per detector: its exact query chain over a small
// background trace carrying the matching labeled attack.  The seeds enter
// the tier-1 differential corpus (test_difftest.cpp replays every .nds).
difftest::Scenario detector_seed(const detectors::Detector& d,
                                 std::size_t index) {
  difftest::Scenario s;
  s.id = 2001 + index;
  s.shards = 4;
  s.burst = 64;
  s.opt_level = 3;
  s.window_ms = 100;
  s.trace.profile = "caida";
  s.trace.flows = 40;
  s.trace.seed = 42;
  difftest::InjectionSpec inj;
  if (d.id == "port_scan") {
    inj = {"port_scan", ipv4(198, 18, 0, 40), ipv4(172, 16, 0, 10), 60, 0,
           120'000'000};
  } else if (d.id == "superspreader") {
    inj = {"super_spreader", ipv4(198, 18, 0, 41), 0, 80, 0, 220'000'000};
  } else if (d.id == "syn_flood") {
    inj = {"syn_flood", ipv4(172, 16, 0, 11), 0, 6, 40, 20'000'000};
  } else if (d.id == "ewma_volume" || d.id == "topk_ports") {
    inj = {"volume_burst", ipv4(172, 16, 0, 12), 9999, 240, 40, 320'000'000};
  } else if (d.id == "prefix_hh") {
    inj = {"prefix_flood", ipv4(198, 51, 100, 0), ipv4(172, 16, 0, 13), 15,
           16, 420'000'000};
  } else {
    throw std::runtime_error("no seed recipe for detector " + d.id);
  }
  s.trace.injections.push_back(inj);
  s.queries.push_back(d.query);
  s.ops.push_back({difftest::OpEvent::Kind::Install, 0, 0, 0});
  return s;
}

void regenerate_artifacts() {
  const LabeledAttackTrace labeled =
      make_labeled_attack_trace(kFixtureSeed, kFixtureFlows);
  save_pcap(labeled.trace, fixture_path());
  const auto lib = detectors::detector_library();
  for (std::size_t i = 0; i < lib.size(); ++i)
    detector_seed(lib[i], i).save(seed_path(lib[i].id));
}

const std::string& ensure_fixture() {
  static const std::string path = [] {
    if (std::getenv("NEWTON_REGEN_FIXTURE") != nullptr) regenerate_artifacts();
    return fixture_path();
  }();
  return path;
}

struct Scores {
  std::map<std::string, detectors::Evaluation> by_id;
};

// One sharded-runtime pass with every detector installed, mirroring
// bench_detectors and `newton_tool replay` (the runtime derives the
// sip/8, dip and dport key groups).
Scores run_all(const std::string& pcap, std::size_t shards) {
  const auto lib = detectors::detector_library();
  const Trace t = load_pcap(pcap);

  Analyzer an;
  detectors::ValueSink values(lib.front().query.window_ns);
  NewtonSwitch sw(1, 64, nullptr);  // deep budget: concurrent chains
  RuntimeOptions ro;
  ro.num_shards = shards;
  ro.record_snapshots = false;
  ShardedRuntime rt(sw, ro, &an);
  rt.set_report_sink(&values);
  for (const auto& d : lib) rt.install(d.query);

  ingest::PcapFileSource src(pcap);
  ingest::IngestPump pump(rt);
  const ingest::PumpStats ps = pump.run(src);
  rt.finish();
  EXPECT_EQ(ps.packets, t.size());

  Scores out;
  const detectors::EvalInput in{t, an, values};
  for (const auto& d : lib) out.by_id[d.id] = d.evaluate(in);
  return out;
}

TEST(DetectorLibrary, SixDetectorsWithRenderedChains) {
  const auto lib = detectors::detector_library();
  ASSERT_GE(lib.size(), 6u);
  std::set<std::string> ids;
  for (const auto& d : lib) {
    EXPECT_TRUE(ids.insert(d.id).second) << "duplicate id " << d.id;
    EXPECT_FALSE(d.intent.empty()) << d.id;
    EXPECT_FALSE(d.chain.empty()) << d.id;
    EXPECT_TRUE(d.evaluate != nullptr) << d.id;
  }
  for (const char* id : {"port_scan", "superspreader", "syn_flood",
                         "ewma_volume", "topk_ports", "prefix_hh"})
    EXPECT_NE(detectors::find_detector(lib, id), nullptr) << id;
}

TEST(DetectorLibrary, GroupsByShardKeyWithCoarsestMask) {
  // The runtime's derived key groups for the library: sip-keyed (port_scan,
  // superspreader and prefix_hh's /8, /16, /24 branches, coarsened to the
  // sip/8 mask affine for all three), dip-keyed and dport-keyed.
  const auto lib = detectors::detector_library();
  std::vector<ShardBranch> branches;
  std::vector<std::string> owner;  // detector id, by qid
  for (const auto& d : lib)
    for (const BranchDef& b : d.query.branches) {
      branches.push_back({static_cast<uint16_t>(branches.size()), &b});
      owner.push_back(d.id);
    }
  const auto groups = derive_shard_groups(branches);
  ASSERT_EQ(groups.size(), 3u);
  const auto members = [&](const ShardGroup& g) {
    std::set<std::string> ids;
    for (uint16_t q : g.qids) ids.insert(owner[q]);
    return ids;
  };
  EXPECT_EQ(groups[0].key, ShardKey::on_masked({Field::SrcIp}, {0xff000000u}));
  EXPECT_EQ(members(groups[0]), (std::set<std::string>{
                                    "port_scan", "prefix_hh", "superspreader"}));
  EXPECT_EQ(groups[1].key, ShardKey::on({Field::DstIp}));
  EXPECT_EQ(members(groups[1]),
            (std::set<std::string>{"ewma_volume", "syn_flood"}));
  EXPECT_EQ(groups[2].key, ShardKey::on({Field::DstPort}));
  EXPECT_EQ(members(groups[2]), (std::set<std::string>{"topk_ports"}));
  std::size_t placed = 0;
  for (const ShardGroup& g : groups) {
    EXPECT_FALSE(g.pinned);
    placed += g.qids.size();
  }
  EXPECT_EQ(placed, branches.size());
}

TEST(DetectorLibrary, ChainsRoundTripThroughDsl) {
  for (const auto& d : detectors::detector_library()) {
    const std::string dsl = query_to_dsl(d.query);
    const Query back = parse_query(d.query.name, dsl);
    EXPECT_EQ(query_to_dsl(back), dsl) << d.id;
  }
}

TEST(DetectorFixture, StaysUnderCorpusBudget) {
  const std::string& path = ensure_fixture();
  ASSERT_TRUE(fs::exists(path))
      << path << " missing; regenerate with NEWTON_REGEN_FIXTURE=1";
  EXPECT_LT(fs::file_size(path), kFixtureBudgetBytes);
}

TEST(DetectorFixture, SeedsMatchLibraryChains) {
  const auto lib = detectors::detector_library();
  for (const auto& d : lib) {
    const std::string path = seed_path(d.id);
    ASSERT_TRUE(fs::exists(path))
        << path << " missing; regenerate with NEWTON_REGEN_FIXTURE=1";
    const difftest::Scenario s = difftest::Scenario::load(path);
    ASSERT_EQ(s.queries.size(), 1u) << d.id;
    // The committed seed must carry the library's exact chain (modulo the
    // scenario's q<i> naming).
    EXPECT_EQ(query_to_dsl(s.queries[0]), query_to_dsl(d.query)) << d.id;
  }
}

TEST(DetectorAccuracy, AllDetectorsMeetBoundsAndShardsAgree) {
  const std::string& path = ensure_fixture();
  ASSERT_TRUE(fs::exists(path))
      << path << " missing; regenerate with NEWTON_REGEN_FIXTURE=1";

  const Scores one = run_all(path, 1);
  const Scores four = run_all(path, 4);
  for (const auto& d : detectors::detector_library()) {
    SCOPED_TRACE(d.id);
    const auto it = one.by_id.find(d.id);
    ASSERT_NE(it, one.by_id.end());
    const detectors::Evaluation& e = it->second;
    EXPECT_GT(e.truth_keys, 0u) << "fixture carries no attack for " << d.id;
    EXPECT_GE(e.acc.precision(), d.min_precision);
    EXPECT_GE(e.acc.recall(), d.min_recall);

    const detectors::Evaluation& e4 = four.by_id.at(d.id);
    EXPECT_EQ(e.detected_keys, e4.detected_keys);
    EXPECT_EQ(e.acc.tp, e4.acc.tp);
    EXPECT_EQ(e.acc.fp, e4.acc.fp);
    EXPECT_EQ(e.acc.fn, e4.acc.fn);
  }
}

}  // namespace
}  // namespace newton
