// Compiled per-query executors (src/compile/, docs/compile.md): the chain
// JIT must be a pure performance transform.  Pins, on top of the difftest
// jit axis:
//   * every committed .nds corpus seed replays byte-identically with the
//     JIT on vs. off, at 1 and at 4 shards (reports AND merged register
//     state), with the compiled path actually carrying packets;
//   * a stopped query never overwrites a metadata set that another live
//     query of the same run still reads (per-query alive rows);
//   * an H op's digest covers every key word another query's K on the same
//     metadata set can write between the op's own K and the op;
//   * the bench query set (q1/q3/q5) and all six detector-library chains
//     lower to the compiled executor;
//   * the escape hatch (RuntimeOptions::jit = false) routes every packet
//     through the interpreter;
//   * runs are cut where the ordered activation list changes, and the
//     per-list plans (exact, bounded, dropped at every replica load) match
//     the interpreter through a real ShardWorker.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "compile/executor.h"
#include "core/controller.h"
#include "core/modules.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "core/report.h"
#include "detectors/detector.h"
#include "dataplane/pipeline.h"
#include "difftest/scenario.h"
#include "runtime/sharded_runtime.h"
#include "runtime/worker.h"
#include "telemetry/telemetry.h"
#include "trace/attacks.h"
#include "trace/pcap.h"
#include "trace/trace_gen.h"

using namespace newton;

namespace fs = std::filesystem;

#ifndef NEWTON_CORPUS_DIR
#define NEWTON_CORPUS_DIR "tests/corpus"
#endif

namespace {

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(NEWTON_CORPUS_DIR))
    if (e.is_regular_file() && e.path().extension() == ".nds")
      files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

auto rec_key(const ReportRecord& r) {
  return std::tuple(r.qid, r.ts_ns, r.oper_keys, r.hash_result,
                    r.state_result, r.global_result, r.switch_id, r.deferred,
                    r.next_slice);
}

std::vector<ReportRecord> sorted(std::vector<ReportRecord> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return rec_key(a) < rec_key(b);
  });
  return v;
}

CompileOptions level(int o) {
  CompileOptions c;
  c.opt1 = o >= 1;
  c.opt2 = o >= 2;
  c.opt3 = o >= 3;
  return c;
}

// Worst-case register need, mirroring the difftest harness's sizing.
std::size_t bank_size(const difftest::Scenario& s) {
  std::size_t need = 16384;
  for (const Query& q : s.queries)
    need += q.sketch_width * q.row_partitions * q.branches.size();
  return std::max<std::size_t>(kStateBankRegisters, need);
}

struct RunOut {
  std::vector<ReportRecord> records;
  // (query, branch, window) -> end-of-window register slice contents.
  std::map<std::tuple<std::string, std::size_t, uint64_t>,
           std::vector<uint32_t>>
      state;
  uint64_t jit_packets = 0;
  uint64_t hash_lanes = 0;
  uint64_t packets_in = 0;
};

// Mirror of the difftest harness's sharded-runtime execution (op schedule,
// derived key groups, window snapshots), but collecting the raw report
// stream so the jit-on/off comparison is byte-level, not keyset-level.
// `burst` = 0 keeps the scenario's burst size.
RunOut run_scenario(const difftest::Scenario& s, const Trace& t,
                    std::size_t nshards, bool jit, std::size_t burst = 0) {
  RunOut out;
  ReportBuffer buf;
  NewtonSwitch primary(1, difftest::kPipelineStages, nullptr, bank_size(s));
  RuntimeOptions ro;
  ro.num_shards = nshards;
  ro.burst = burst == 0 ? s.burst : burst;
  ro.record_snapshots = true;
  ro.jit = jit;
  ShardedRuntime rt(primary, ro, nullptr);
  rt.set_report_sink(&buf);
  const std::vector<difftest::ResolvedOp> ops = difftest::resolve_ops(s);
  std::size_t next = 0;
  const auto apply = [&](const difftest::ResolvedOp& op) {
    if (op.kind == difftest::ResolvedOp::Kind::Install)
      rt.install(op.def, level(s.opt_level));
    else
      rt.withdraw(difftest::query_name(op.query));
  };
  for (; next < ops.size() && ops[next].at_packet == 0; ++next)
    apply(ops[next]);
  rt.start();
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    for (; next < ops.size() && ops[next].at_packet <= i; ++next)
      apply(ops[next]);
    rt.process(t.packets[i]);
  }
  rt.finish();
  out.records = sorted(buf.records());
  for (const WindowSnapshot& snap : rt.snapshots())
    for (const BranchSnapshot& b : snap.branches)
      out.state[{b.query, b.branch, snap.window}] = b.state;
  out.packets_in = rt.stats().packets_in;
  for (const WorkerStats& w : rt.stats().workers) {
    out.jit_packets += w.jit_packets;
    out.hash_lanes += w.jit_hash_lanes;
  }
  return out;
}

void expect_same(const RunOut& a, const RunOut& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i)
    ASSERT_EQ(rec_key(a.records[i]), rec_key(b.records[i])) << "record " << i;
  EXPECT_EQ(a.state, b.state);
}

Trace bench_trace(uint32_t seed) {
  TraceProfile p = caida_like(seed);
  p.num_flows = 400;
  Trace t = generate_trace(p);
  std::mt19937 rng(seed + 7);
  inject_syn_flood(t, ipv4(172, 16, 7, 7), 200, 1, 150'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 9, 9), 120, 2, 450'000'000, rng);
  t.sort_by_time();
  return t;
}

// Chains CompiledPipeline::build leaves to the interpreter for `sw`.
std::size_t overlapping_chains(const NewtonSwitch& sw) {
  Pipeline replica = sw.pipeline().clone();
  compile::CompiledPipeline exec;
  exec.build(replica, 64, {});
  return exec.overlapping_chains();
}

constexpr uint16_t kQA = 1, kQB = 2;

// Two queries sharing metadata set 1, one module per stage.  Query A
// filters on dport 80 through set 0 (direct H, bypass S, R that Stops every
// other packet), then rewrites set 1 with its own K/H/S.  Query B fills
// set 1 first and reads it back in the last stage, folding its state into
// the global result A's R set.  In the interpreter a stopped A skips its
// set-1 writes, so on every non-80 packet B reports its own keys, digest
// and state.
struct TwoQueryPipe {
  Pipeline pipe{9};
  ReportBuffer reports;
  std::vector<SModule*> banks;
  std::vector<TableProgram*> tables;

  TwoQueryPipe() {
    const auto place = [&](std::size_t stage, auto mod) {
      tables.push_back(mod.get());
      pipe.stage(stage).add(std::move(mod));
    };
    auto k0 = std::make_shared<KModule>("k0");
    KConfig ka, kb;
    ka.masks[index(Field::DstPort)] = 0xffffffffu;
    kb.set = 1;
    kb.masks[index(Field::SrcIp)] = 0xffffffffu;
    kb.masks[index(Field::DstIp)] = 0xffffff00u;
    k0->table().insert(kQA, ka);
    k0->table().insert(kQB, kb);
    place(0, k0);

    auto h1 = std::make_shared<HModule>("h1");
    HConfig ha, hb;
    ha.direct = true;
    ha.direct_field = Field::DstPort;
    ha.width = 0;
    hb.set = 1;
    hb.width = 64;
    h1->table().insert(kQA, ha);
    h1->table().insert(kQB, hb);
    place(1, h1);

    auto s2 = std::make_shared<SModule>("s2", 128);
    SConfig sa, sb;
    sa.bypass = true;
    sb.set = 1;
    s2->table().insert(kQA, sa);
    s2->table().insert(kQB, sb);
    banks.push_back(s2.get());
    place(2, s2);

    auto r3 = std::make_shared<RModule>("r3", &reports, 1);
    RConfig ra;
    ra.match_on_global = false;
    ra.match_lo = ra.match_hi = 80;
    ra.on_miss = RAction::Stop;
    r3->table().insert(kQA, ra);
    place(3, r3);

    auto k4 = std::make_shared<KModule>("k4");
    KConfig ka2;
    ka2.set = 1;
    ka2.masks[index(Field::SrcPort)] = 0xffffffffu;
    k4->table().insert(kQA, ka2);
    place(4, k4);

    auto h5 = std::make_shared<HModule>("h5");
    HConfig ha2;
    ha2.algo = HashAlgo::Crc32c;
    ha2.seed = 9;
    ha2.set = 1;
    ha2.width = 64;
    ha2.offset = 64;
    h5->table().insert(kQA, ha2);
    place(5, h5);

    auto s6 = std::make_shared<SModule>("s6", 128);
    SConfig sa2;
    sa2.set = 1;
    s6->table().insert(kQA, sa2);
    banks.push_back(s6.get());
    place(6, s6);

    auto r7 = std::make_shared<RModule>("r7", &reports, 1);
    RConfig ra2;
    ra2.set = 1;
    ra2.combine = RCombine::Set;
    ra2.match_lo = 2;
    ra2.on_match = RAction::Report;
    r7->table().insert(kQA, ra2);
    place(7, r7);

    auto r8 = std::make_shared<RModule>("r8", &reports, 1);
    RConfig rb;
    rb.set = 1;
    rb.combine = RCombine::Add;
    rb.match_on_global = false;
    rb.on_match = RAction::Report;
    r8->table().insert(kQB, rb);
    place(8, r8);
  }
};

// Packet i of the two-query stream: mostly both queries active (A first),
// with single-query packets mixed in so runs split at active-set changes.
void load_two_query_phv(Phv& phv, const std::vector<Packet>& pkts,
                        std::size_t i) {
  phv.reset();
  phv.pkt = pkts[i];
  if (i % 11 != 5) phv.activate_query(kQA);
  if (i % 7 != 3) phv.activate_query(kQB);
}

// Two queries on metadata set 0 whose K masks differ, one module per
// stage.  B's K (stage 1: dport and the high sport byte) runs between A's
// K (stage 0: sip) and A's HHash (stage 2), so on a packet where both are
// active A hashes B's key: the interpreter's HModule hashes whatever the
// set holds.  A counts into its own bank and reports every packet with its
// digest before B's H (stage 5) rewrites the set's hash; B counts into a
// second bank and reports every repeat.
struct CrossChainPipe {
  Pipeline pipe{8};
  ReportBuffer reports;
  std::vector<SModule*> banks;
  std::vector<TableProgram*> tables;

  CrossChainPipe() {
    const auto place = [&](std::size_t stage, auto mod) {
      tables.push_back(mod.get());
      pipe.stage(stage).add(std::move(mod));
    };
    auto k0 = std::make_shared<KModule>("k0");
    KConfig ka;
    ka.masks[index(Field::SrcIp)] = 0xffffffffu;
    k0->table().insert(kQA, ka);
    place(0, k0);

    auto k1 = std::make_shared<KModule>("k1");
    KConfig kb;
    kb.masks[index(Field::DstPort)] = 0xffffffffu;
    kb.masks[index(Field::SrcPort)] = 0xff00u;
    k1->table().insert(kQB, kb);
    place(1, k1);

    // Per query: H, S into its own 64-register bank, R.
    const auto tail = [&](std::size_t stage, uint16_t q, HConfig h,
                          RConfig r) {
      auto hm = std::make_shared<HModule>("h" + std::to_string(stage));
      h.width = 64;
      hm->table().insert(q, h);
      place(stage, hm);
      auto sm = std::make_shared<SModule>("s" + std::to_string(stage + 1),
                                          64);
      sm->table().insert(q, SConfig{});
      banks.push_back(sm.get());
      place(stage + 1, sm);
      auto rm = std::make_shared<RModule>("r" + std::to_string(stage + 2),
                                          &reports, 1);
      r.match_on_global = false;
      r.on_match = RAction::Report;
      rm->table().insert(q, r);
      place(stage + 2, rm);
    };
    HConfig ha, hb;
    ha.algo = HashAlgo::Crc32c;
    ha.seed = 3;
    hb.seed = 11;
    RConfig rb;
    rb.match_lo = 2;
    tail(2, kQA, ha, RConfig{});
    tail(5, kQB, hb, rb);
  }
};

// Runs `pkts` (activated as in load_two_query_phv) through a Pipe's
// interpreter in one burst and through a compiled copy at bursts 1, 3 and
// 64, with runs cut where the active set changes.  Reports, register
// banks and rule-hit counts must match the interpreter at every burst.
template <class Pipe>
void expect_compiled_matches_interpreter(const std::vector<Packet>& pkts) {
  Pipe interp;
  std::vector<Phv> phvs(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i)
    load_two_query_phv(phvs[i], pkts, i);
  interp.pipe.process_burst(phvs.data(), phvs.size());
  const auto want = sorted(interp.reports.records());
  ASSERT_GT(want.size(), pkts.size() / 2);

  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    Pipe jit;
    compile::CompiledPipeline exec;
    exec.build(jit.pipe, burst, {});
    ASSERT_TRUE(exec.enabled());
    uint64_t multi = 0;
    for (std::size_t base = 0; base < pkts.size(); base += burst) {
      const std::size_t m = std::min(burst, pkts.size() - base);
      for (std::size_t i = 0; i < m; ++i)
        load_two_query_phv(phvs[i], pkts, base + i);
      for (std::size_t i = 0; i < m;) {
        std::size_t j = i + 1;
        while (j < m && phvs[j].active == phvs[i].active) ++j;
        ASSERT_TRUE(exec.covers(phvs[i]));
        if (!exec.execute_run(phvs.data() + i, j - i)) multi += j - i;
        i = j;
      }
    }
    EXPECT_GT(multi, pkts.size() / 2);
    const auto got = sorted(jit.reports.records());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(rec_key(got[i]), rec_key(want[i])) << "record " << i;
    for (std::size_t b = 0; b < jit.banks.size(); ++b)
      for (std::size_t r = 0; r < jit.banks[b]->registers().size(); ++r)
        ASSERT_EQ(jit.banks[b]->registers().read(r),
                  interp.banks[b]->registers().read(r))
            << "bank " << b << " register " << r;
    for (std::size_t t = 0; t < jit.tables.size(); ++t)
      EXPECT_EQ(*jit.tables[t]->hits_cell(), *interp.tables[t]->hits_cell())
          << "table " << t;
  }
}

}  // namespace

// A query that R stopped mid-run must not write the metadata set another
// live query of the same run still reads.  Reports, register state and
// rule-hit counts must match the interpreter at every burst size.  B
// reports every packet it sees, so some B reports come from packets where
// A was active and then stopped.
TEST(CompiledAliveRows, StoppedQueryLeavesSharedSetToLiveQuery) {
  std::mt19937 rng(5);
  std::vector<Packet> pkts;
  const uint32_t dports[] = {80, 443, 53};
  for (std::size_t i = 0; i < 300; ++i)
    pkts.push_back(make_packet(ipv4(10, 0, 0, 1 + rng() % 4),
                               ipv4(10, 1, rng() % 3, 9), 1000 + rng() % 5,
                               dports[rng() % 3], kProtoTcp, 0, 64, i));
  expect_compiled_matches_interpreter<TwoQueryPipe>(pkts);
}

// An HHash op hashes only the key words some compiled K op on its
// metadata set may write.  Another query's K between the op's own K and
// the op rewrites the set with a different mask, so the words the op's
// own K keeps are not enough: the digest must match the interpreter's
// hash of the whole row.
TEST(CompiledHashCaredWords, OtherQuerysKBetweenOwnKAndH) {
  std::mt19937 rng(9);
  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < 300; ++i)
    pkts.push_back(make_packet(ipv4(10, 0, 0, 1 + rng() % 4),
                               ipv4(10, 1, 0, 9), 1000 + rng() % 600,
                               40 + rng() % 3, kProtoTcp, 0, 64, i));
  expect_compiled_matches_interpreter<CrossChainPipe>(pkts);
}

// Every committed seed scenario — including the mid-stream
// install/withdraw schedules — must produce a byte-identical report stream
// and identical merged register state with the chain JIT on and off, at
// both shard counts.  Same shard key on both legs, so even non-affine
// scenarios must agree exactly.
TEST(CompiledCorpus, JitMatchesInterpreterAt1And4Shards) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 8u);
  uint64_t jit_packets_total = 0;
  for (const fs::path& p : files) {
    SCOPED_TRACE(p.filename().string());
    const difftest::Scenario s = difftest::Scenario::load(p.string());
    const Trace t = s.trace.build();
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const RunOut on = run_scenario(s, t, shards, /*jit=*/true);
      const RunOut off = run_scenario(s, t, shards, /*jit=*/false);
      ASSERT_EQ(on.records.size(), off.records.size());
      for (std::size_t i = 0; i < on.records.size(); ++i)
        ASSERT_EQ(rec_key(on.records[i]), rec_key(off.records[i]))
            << "record " << i;
      EXPECT_EQ(on.state, off.state);
      EXPECT_EQ(off.jit_packets, 0u);
      jit_packets_total += on.jit_packets;
    }
  }
  // The corpus must actually exercise the compiled path, not just agree
  // because everything fell back to the interpreter.
  EXPECT_GT(jit_packets_total, 0u);
}

// Hashing must be exact at every run length.  Sweep the burst size over
// representative seeds against one interpreter baseline: byte-identical
// reports and register state at every point.  Burst 1 makes every packet
// its own run, burst 3 splits runs mid-stream, burst 64 is the
// steady-state shape.  The name is older than the per-key hash.
TEST(CompiledBatchedHashing, BurstSweepByteIdentical) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 2u);
  for (std::size_t fi = 0; fi < 2; ++fi) {
    SCOPED_TRACE(files[fi].filename().string());
    const difftest::Scenario s = difftest::Scenario::load(files[fi].string());
    const Trace t = s.trace.build();
    const RunOut base = run_scenario(s, t, 1, /*jit=*/false);
    uint64_t jit_packets_total = 0, hash_lanes_total = 0;
    for (const std::size_t burst : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}}) {
      SCOPED_TRACE("burst=" + std::to_string(burst));
      const RunOut on = run_scenario(s, t, 1, /*jit=*/true, burst);
      expect_same(on, base);
      jit_packets_total += on.jit_packets;
      hash_lanes_total += on.hash_lanes;
    }
    EXPECT_GT(jit_packets_total, 0u);
    EXPECT_GT(hash_lanes_total, 0u);
  }
}

// The compiled executor carries the bench query set's whole stream.
TEST(CompiledCoverage, BenchQueriesCompile) {
  Analyzer an;
  NewtonSwitch sw(1, 24, nullptr);
  ShardedRuntime rt(sw, {}, &an);
  QueryParams p;
  rt.install(make_q1(p));
  rt.install(make_q3(p));
  rt.install(make_q5(p));
  rt.start();
  ASSERT_TRUE(rt.jit_enabled());
  EXPECT_EQ(rt.stats().jit_recompiles, 1u);

  const Trace t = bench_trace(31);
  for (const Packet& pk : t.packets) rt.process(pk);
  rt.finish();
  uint64_t jit = 0, single = 0, total = 0, lanes = 0, plans = 0,
           fallback = 0;
  for (const WorkerStats& w : rt.stats().workers) {
    jit += w.jit_packets;
    single += w.jit_fused_packets;  // packets in single-query runs
    total += w.packets;
    lanes += w.jit_hash_lanes;
    plans += w.jit_plans;
    fallback += w.jit_plan_fallback_runs;
  }
  // The multi-query runs replay a plan per activation list, and the
  // runtime publishes the count at its last fence.
  EXPECT_GE(plans, 1u);
  EXPECT_EQ(fallback, 0u);
  EXPECT_EQ(telemetry::Registry::global()
                .gauge("newton_runtime_jit_plans")
                .value(),
            static_cast<int64_t>(plans));
  // Full coverage: every demuxed packet rides the compiled path, and most
  // of the stream activates a single query.
  EXPECT_EQ(jit, total);
  EXPECT_GT(total, 0u);
  EXPECT_GT(single, total / 2);
  // Every H op of every compiled packet computes a digest.  Each bench
  // chain holds at least two HHash ops (q1 two, q3/q5 four) ahead of its
  // first Stop.
  EXPECT_GE(lanes, 2 * jit);

  // Installs guard every S rule to its own slice, so no chain of the bench
  // queries or of the six detectors shares a register with another.
  EXPECT_EQ(overlapping_chains(sw), 0u);
  NewtonSwitch dsw(1, 64, nullptr);
  Controller dctl(dsw);
  for (const auto& d : detectors::detector_library()) dctl.install(d.query);
  EXPECT_EQ(overlapping_chains(dsw), 0u);
}

// All six detector-library chains lower to compiled executors, installed
// together as `newton_tool replay --detectors` installs them: one chain per
// installed qid.
TEST(CompiledCoverage, DetectorChainsCompile) {
  const auto lib = detectors::detector_library();
  ASSERT_GE(lib.size(), 6u);
  Analyzer an;
  NewtonSwitch sw(1, 64, nullptr);  // deep budget: concurrent chains
  RuntimeOptions ro;
  ro.record_snapshots = false;
  ShardedRuntime rt(sw, ro, &an);
  for (const auto& d : lib) rt.install(d.query);
  rt.start();
  std::vector<uint16_t> qids;
  for (const Controller::QueryInfo& info : rt.controller().list_queries())
    qids.insert(qids.end(), info.qids.begin(), info.qids.end());
  std::sort(qids.begin(), qids.end());
  Pipeline replica = sw.pipeline().clone();
  std::vector<uint16_t> lowered;
  for (const compile::Chain& c : compile::lower(replica)) {
    EXPECT_FALSE(c.ops.empty()) << "qid " << c.qid;
    lowered.push_back(c.qid);
  }
  EXPECT_EQ(lowered, qids);
  // Six detectors, some multi-branch: at least one chain each.
  EXPECT_GE(lowered.size(), 6u);
  rt.finish();
}

// RuntimeOptions::jit = false: the interpreter handles everything and no
// replica load lowers.
TEST(CompiledEscapeHatch, OptionDisablesJit) {
  Analyzer an;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions ro;
  ro.jit = false;
  ShardedRuntime rt(sw, ro, &an);
  QueryParams p;
  rt.install(make_q1(p));
  rt.start();
  EXPECT_FALSE(rt.jit_enabled());
  const Trace t = bench_trace(33);
  for (const Packet& pk : t.packets) rt.process(pk);
  rt.finish();
  uint64_t jit = 0, total = 0;
  for (const WorkerStats& w : rt.stats().workers) {
    jit += w.jit_packets;
    total += w.packets;
  }
  EXPECT_EQ(jit, 0u);
  EXPECT_GT(total, 0u);
  EXPECT_EQ(rt.stats().jit_recompiles, 0u);
}

namespace {

// One window's outcome of a hand-driven ShardWorker: sorted reports, every
// S bank's registers, the module rule hits the window published per
// (module type, stage), and the worker's counters at the fence.
struct WindowOut {
  std::vector<ReportRecord> records;
  std::map<std::size_t, std::vector<uint32_t>> banks;
  std::map<std::pair<std::string, std::size_t>, uint64_t> hits;
  WorkerStats stats;
};

uint64_t stage_hits(const char* type, std::size_t stage) {
  return telemetry::Registry::global()
      .counter("newton_module_stage_rule_hits_total", "",
               {{"module", type}, {"stage", std::to_string(stage)}})
      .value();
}

// A ShardWorker driven without the runtime, so a test controls its replica
// loads.  The first window's packets are queued before the thread starts,
// so every burst it drains is full.  Rule-hit deltas come from the global
// registry, so two legs must not run at once.
class WorkerLeg {
 public:
  WorkerLeg(const NewtonSwitch& sw, std::size_t burst, bool jit)
      : w_(sw, 0, 8192, burst, jit), stages_(sw.num_stages()) {
    load();
  }
  // Copies the rules the switch holds now.
  void load() {
    std::bitset<kMaxQueries> all;
    w_.load_replica({all.set()});
  }
  // Runs `pkts` up to a fence.
  WindowOut window(const std::vector<Packet>& pkts) {
    std::vector<WorkItem> items;
    for (const Packet& p : pkts)
      items.push_back({WorkItem::Kind::Packet, 1, p});
    items.push_back({WorkItem::Kind::Fence, 0, {}});
    uint64_t stalls = 0;
    EXPECT_EQ(w_.post(items.data(), items.size(), 0, stalls), items.size());
    w_.start();
    EXPECT_TRUE(w_.wait_fence_for(++fences_, 0));
    WindowOut out;
    out.records = sorted(w_.reports().records());
    w_.reports().clear();
    for (std::size_t st = 0; st < stages_; ++st) {
      const RegisterArray& regs = w_.bank(st);
      std::vector<uint32_t>& v = out.banks[st];
      for (std::size_t r = 0; r < regs.size(); ++r) v.push_back(regs.read(r));
    }
    std::map<std::pair<std::string, std::size_t>, uint64_t> before;
    for (const char* t : {"K", "H", "S", "R"})
      for (std::size_t st = 0; st < stages_; ++st)
        before[{t, st}] = stage_hits(t, st);
    w_.publish_telemetry();
    for (const auto& [key, was] : before)
      if (const uint64_t d = stage_hits(key.first.c_str(), key.second) - was)
        out.hits[key] = d;
    out.stats = w_.stats();
    return out;
  }

 private:
  ShardWorker w_;
  std::size_t stages_ = 0;
  uint64_t fences_ = 0;
};

void expect_same_window(const WindowOut& jit, const WindowOut& interp) {
  ASSERT_EQ(jit.records.size(), interp.records.size());
  for (std::size_t i = 0; i < jit.records.size(); ++i)
    ASSERT_EQ(rec_key(jit.records[i]), rec_key(interp.records[i]))
        << "record " << i;
  EXPECT_EQ(jit.banks, interp.banks);
  EXPECT_EQ(jit.hits, interp.hits);
  EXPECT_GT(jit.stats.jit_packets, 0u);
  EXPECT_EQ(interp.stats.jit_packets, 0u);
}

// Queries 1..nq on stages 0-3 of a 4-stage switch, one K/H/S/R rule each,
// every rule on metadata set 0.  So their interleaving decides every
// result: every S reads the digest of the last query whose H ran, over the
// keys of the last query whose K ran (only that query's guard passes), and
// R folds each query's state into the global result in list order.
std::unique_ptr<NewtonSwitch> shared_set_switch(uint16_t nq) {
  auto sw = std::make_unique<NewtonSwitch>(1, 4, nullptr, 1024);
  const ModuleInstances& m = sw->modules();
  const Field keys[] = {Field::SrcIp, Field::DstPort, Field::SrcPort,
                        Field::DstIp};
  for (uint16_t q = 1; q <= nq; ++q) {
    KConfig k;
    k.masks[index(keys[q % 4])] = 0xffffffffu;
    m.k[0]->table().insert(q, k);
    HConfig h;
    h.seed = q;
    h.width = 64;
    h.offset = 64 * q;
    m.h[1]->table().insert(q, h);
    SConfig st;  // guarded to the query's slice, as installs guard it
    st.guard_lo = st.index_base = h.offset;
    st.guard_hi = h.offset + h.width - 1;
    m.s[2]->table().insert(q, st);
    RConfig r;
    r.combine = RCombine::Add;
    r.on_match = RAction::Report;
    m.r[3]->table().insert(q, r);
  }
  return sw;
}

// A newton_init rule on the key [sip, dip, sport, dport, proto, flags,
// at_ingress]: `word` must equal `value` under `mask`.
void init_rule(NewtonSwitch& sw, std::size_t word, uint32_t value,
               uint32_t mask, std::vector<uint16_t> qids) {
  std::vector<MatchWord> key(7, MatchWord::wildcard());
  key[word] = {value, mask};
  sw.init_table().table().insert(std::move(key), 0, {std::move(qids)});
}

WindowOut run_window(const NewtonSwitch& sw, const std::vector<Packet>& pkts,
                     std::size_t burst, bool jit) {
  WorkerLeg leg(sw, burst, jit);
  return leg.window(pkts);
}

// newton_init rules {q1} on TCP and {q2, q1} on dport 80: TCP:80 gets the
// activation list [q1, q2], UDP:80 gets [q2, q1].
void two_order_rules(NewtonSwitch& sw) {
  init_rule(sw, 4, kProtoTcp, 0xffffffffu, {1});
  init_rule(sw, 3, 80, 0xffffffffu, {2, 1});
}

// Mostly those two orders, interleaved, plus traffic with one query or
// none.
std::vector<Packet> two_order_packets() {
  std::mt19937 rng(11);
  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < 400; ++i) {
    const uint32_t r = rng() % 8;
    const bool tcp = r < 4 || r == 6;
    const uint32_t dport = r == 6 ? 443 : r == 7 ? 53 : 80;
    pkts.push_back(make_packet(ipv4(10, 0, 0, 1 + rng() % 9),
                               ipv4(10, 1, 0, 1 + rng() % 3),
                               1000 + rng() % 7, dport,
                               tcp ? kProtoTcp : kProtoUdp, 0, 64, i));
  }
  return pkts;
}

// Replace query q's S rule on shared_set_switch's bank (stage 2).
void set_s_rule(NewtonSwitch& sw, uint16_t q, uint32_t guard_lo,
                uint32_t guard_hi, uint32_t index_base) {
  SConfig st;
  st.guard_lo = guard_lo;
  st.guard_hi = guard_hi;
  st.index_base = index_base;
  sw.modules().s[2]->table().insert(q, st);
}

}  // namespace

// Runs are cut where the ordered activation list changes, not where the
// active set does.  newton_init rules {q1} (TCP) and {q2, q1} (dport 80)
// give TCP:80 the list [q1, q2] and UDP:80 the list [q2, q1].  Both
// queries write set 0 from one K table, so the two orders give different
// keys, registers and reports.  A run that mixed them would execute every
// packet in its first packet's order.
TEST(CompiledRunKey, SameSetInTwoOrdersMatchesInterpreter) {
  auto sw = shared_set_switch(2);
  two_order_rules(*sw);
  const std::vector<Packet> pkts = two_order_packets();
  const WindowOut want = run_window(*sw, pkts, 64, /*jit=*/false);
  ASSERT_GT(want.records.size(), pkts.size());
  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    const WindowOut got = run_window(*sw, pkts, burst, /*jit=*/true);
    expect_same_window(got, want);
    // Two orders of one set: two plans.
    EXPECT_EQ(got.stats.jit_plans, 2u);
    EXPECT_EQ(got.stats.jit_plan_fallback_runs, 0u);
  }
}

// Two unguarded S rules on one bank: both queries index the whole bank
// from the shared set-0 digest, so one register can take both queries'
// adds for one packet.  Op-major execution would run every packet's q1 add
// before any packet's q2 add and change what each read-modify-write
// returns (a compiled state_result read 9 where the interpreter's read 8).
// build() leaves both chains to the interpreter, so every burst size
// matches it.
TEST(CompiledOverlap, UnguardedSharedBankMatchesInterpreter) {
  auto sw = shared_set_switch(2);
  for (uint16_t q = 1; q <= 2; ++q) set_s_rule(*sw, q, 0, 0xffffffffu, 0);
  two_order_rules(*sw);
  EXPECT_EQ(overlapping_chains(*sw), 2u);
  const std::vector<Packet> pkts = two_order_packets();
  const auto idle = static_cast<uint64_t>(
      std::count_if(pkts.begin(), pkts.end(), [](const Packet& p) {
        return p.proto() != kProtoTcp && p.dport() != 80;
      }));
  const WindowOut want = run_window(*sw, pkts, 64, /*jit=*/false);
  ASSERT_GT(want.records.size(), pkts.size());
  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    const WindowOut got = run_window(*sw, pkts, burst, /*jit=*/true);
    expect_same_window(got, want);
    // Only the packets that activate no query count as compiled.
    EXPECT_EQ(got.stats.jit_packets, idle);
  }
}

// Ranges are circular: index_base + (h - guard_lo) wraps at the bank size
// (1024 here).  Only chains whose ranges share a register are flagged.
TEST(CompiledOverlap, WrappedRangesFlagOnlyOverlaps) {
  auto sw = shared_set_switch(3);
  EXPECT_EQ(overlapping_chains(*sw), 0u);  // slices [64q, 64q + 63]
  set_s_rule(*sw, 1, 0, 63, 1000);         // [1000, 1023] + [0, 39]
  EXPECT_EQ(overlapping_chains(*sw), 0u);
  set_s_rule(*sw, 2, 0, 63, 30);           // [30, 93]: meets q1's tail
  EXPECT_EQ(overlapping_chains(*sw), 2u);
  set_s_rule(*sw, 2, 0, 63, 40);           // [40, 103]: just clear of it
  EXPECT_EQ(overlapping_chains(*sw), 0u);
  set_s_rule(*sw, 3, 5, 4, 0);             // empty guard: touches nothing
  EXPECT_EQ(overlapping_chains(*sw), 0u);
  set_s_rule(*sw, 3, 0, 2047, 500);        // wider than the bank
  EXPECT_EQ(overlapping_chains(*sw), 3u);
}

namespace {

// The six detectors installed on one switch, as `newton_tool replay
// --detectors all` installs them.
struct DetectorSwitch {
  NewtonSwitch sw{1, 64, nullptr};
  Controller ctl{sw};
  DetectorSwitch() {
    for (const auto& d : detectors::detector_library()) ctl.install(d.query);
  }
};

// The committed detector fixture, interleaved with itself reversed so
// consecutive packets keep switching traffic class (and active set).
std::vector<Packet> alternating_detector_mix() {
  const Trace t = load_pcap(NEWTON_CORPUS_DIR "/detectors.pcap");
  std::vector<Packet> out;
  const std::size_t n = t.packets.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(t.packets[i]);
    out.push_back(t.packets[n - 1 - i]);
    out.back().ts_ns = out[out.size() - 2].ts_ns;
  }
  return out;
}

}  // namespace

// The six detectors over packets whose active sets keep alternating: each
// distinct multi-query activation list is merged once into a plan, and
// reports, registers and rule hits stay identical to the interpreter at
// every burst size.
TEST(CompiledPlans, SixDetectorsAlternatingSetsMatchInterpreter) {
  const DetectorSwitch d;
  const std::vector<Packet> pkts = alternating_detector_mix();
  ASSERT_GT(pkts.size(), 1000u);
  const WindowOut want = run_window(d.sw, pkts, 64, /*jit=*/false);
  ASSERT_FALSE(want.records.empty());
  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    const WindowOut got = run_window(d.sw, pkts, burst, /*jit=*/true);
    expect_same_window(got, want);
    EXPECT_LT(got.stats.jit_fused_packets, got.stats.jit_packets);
    EXPECT_GE(got.stats.jit_plans, 2u);
    EXPECT_LE(got.stats.jit_plans, compile::CompiledPipeline::kPlanCapacity);
    EXPECT_EQ(got.stats.jit_plan_fallback_runs, 0u);
  }
}

// More distinct multi-query activation lists than the plan table holds:
// eight queries, each activated by one bit of the source port, give up to
// 247 lists.  Runs past the table's capacity merge into scratch, and the
// results stay identical.
TEST(CompiledPlans, FullTableFallsBackExactly) {
  auto sw = shared_set_switch(8);
  for (uint16_t q = 1; q <= 8; ++q)
    init_rule(*sw, 2, 1u << (q - 1), 1u << (q - 1), {q});
  std::mt19937 rng(3);
  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < 2000; ++i)
    pkts.push_back(make_packet(ipv4(10, 0, 0, 1 + rng() % 50),
                               ipv4(10, 1, 0, 1 + rng() % 5), rng() % 256,
                               80, kProtoTcp, 0, 64, i));
  const WindowOut want = run_window(*sw, pkts, 64, /*jit=*/false);
  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    const WindowOut got = run_window(*sw, pkts, burst, /*jit=*/true);
    expect_same_window(got, want);
    EXPECT_EQ(got.stats.jit_plans, compile::CompiledPipeline::kPlanCapacity);
    EXPECT_GT(got.stats.jit_plan_fallback_runs, 0u);
  }
}

// A replica load at a mutation barrier drops every plan: the window after a
// withdraw starts with none, builds its own from the new chains, and a
// later install does the same.  (Under ASan a plan that outlived its
// ChainOps would be a use after free.)
TEST(CompiledPlans, MutationBarrierDropsEveryPlan) {
  DetectorSwitch d;
  const std::vector<Packet> pkts = alternating_detector_mix();
  const std::vector<Packet> half(pkts.begin(), pkts.begin() + pkts.size() / 2);
  const auto lib = detectors::detector_library();
  for (const std::size_t burst : {std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    WorkerLeg jit(d.sw, burst, true), interp(d.sw, burst, false);
    const auto step = [&](const std::vector<Packet>& p) {
      const WindowOut got = jit.window(p);
      expect_same_window(got, interp.window(p));
      return got.stats.jit_plans;
    };
    EXPECT_GE(step(half), 2u);
    d.ctl.remove(lib.front().query.name);
    jit.load();
    interp.load();
    EXPECT_EQ(step({}), 0u);  // a fence with no packets: nothing re-planned
    EXPECT_GE(step(half), 1u);
    d.ctl.install(lib.front().query);
    jit.load();
    interp.load();
    EXPECT_EQ(step({}), 0u);
    EXPECT_GE(step(pkts), 2u);
  }
}
