// Compiled per-query executors (src/compile/, docs/compile.md): the chain
// JIT must be a pure performance transform.  Pins, on top of the difftest
// jit axis:
//   * every committed .nds corpus seed replays byte-identically with the
//     JIT on vs. off, at 1 and at 4 shards (reports AND merged register
//     state), with the compiled path actually carrying packets;
//   * a stopped query never overwrites a metadata set that another live
//     query of the same run still reads (per-query alive rows);
//   * the bench query set (q1/q3/q5) and all six detector-library chains
//     lower to the compiled executor;
//   * both escape hatches (RuntimeOptions::jit = false, NEWTON_NO_JIT)
//     route every packet through the interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "compile/executor.h"
#include "core/modules.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "core/report.h"
#include "detectors/detector.h"
#include "dataplane/pipeline.h"
#include "difftest/scenario.h"
#include "runtime/sharded_runtime.h"
#include "trace/attacks.h"
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
// affine shard key, window snapshots), but collecting the raw report
// stream so the jit-on/off comparison is byte-level, not keyset-level.
// `burst` = 0 keeps the scenario's burst size.
RunOut run_scenario(const difftest::Scenario& s, const Trace& t,
                    std::size_t nshards, bool jit, std::size_t burst = 0) {
  RunOut out;
  ReportBuffer buf;
  NewtonSwitch primary(1, difftest::kPipelineStages, nullptr, bank_size(s));
  primary.set_window_ns(s.window_ns());
  RuntimeOptions ro;
  ro.num_shards = nshards;
  ro.burst = burst == 0 ? s.burst : burst;
  ro.record_snapshots = true;
  ro.jit = jit;
  const auto key = difftest::affine_shard_key(s.queries);
  ro.shard_key = key ? *key : ShardKey::five_tuple();
  ShardedRuntime rt(primary, ro, nullptr);
  rt.set_report_sink(&buf);
  const std::vector<difftest::ResolvedOp> ops = difftest::resolve_ops(s);
  std::size_t next = 0;
  const auto apply = [&](const difftest::ResolvedOp& op) {
    if (op.kind == difftest::ResolvedOp::Kind::Install)
      rt.install(op.def, level(s.opt_level));
    else
      rt.withdraw("q" + std::to_string(op.query));
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

}  // namespace

// A query that R stopped mid-run must not write the metadata set another
// live query of the same run still reads.  Reports, register state and
// rule-hit counts must match the interpreter at every burst size.
TEST(CompiledAliveRows, StoppedQueryLeavesSharedSetToLiveQuery) {
  std::mt19937 rng(5);
  std::vector<Packet> pkts;
  const uint32_t dports[] = {80, 443, 53};
  for (std::size_t i = 0; i < 300; ++i)
    pkts.push_back(make_packet(ipv4(10, 0, 0, 1 + rng() % 4),
                               ipv4(10, 1, rng() % 3, 9), 1000 + rng() % 5,
                               dports[rng() % 3], kProtoTcp, 0, 64, i));

  TwoQueryPipe interp;
  std::vector<Phv> phvs(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i)
    load_two_query_phv(phvs[i], pkts, i);
  interp.pipe.process_burst(phvs.data(), phvs.size());
  const auto want = sorted(interp.reports.records());
  // B reports every packet it sees, so some B reports come from packets
  // where A was active and then stopped.
  ASSERT_GT(want.size(), pkts.size() / 2);

  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    TwoQueryPipe jit;
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

// Batched hashing must be exact at every run length.  Sweep the burst
// size over representative seeds against one interpreter baseline:
// byte-identical reports and register state at every point.  Burst 1
// degenerates batched hashing to single-lane, burst 3 leaves the CRC 4-way
// interleave partially filled, burst 64 is the steady-state shape.
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

// The bench query set lowers fully: every branch chain compiled, and the
// compiled executor carries the whole stream.
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
  const auto cov = rt.jit_coverage();
  ASSERT_FALSE(cov.empty());
  for (const compile::QueryCoverage& c : cov)
    EXPECT_TRUE(c.compiled) << "qid " << c.qid << " fell back to interpreter";

  const Trace t = bench_trace(31);
  for (const Packet& pk : t.packets) rt.process(pk);
  rt.finish();
  uint64_t jit = 0, single = 0, total = 0, lanes = 0;
  for (const WorkerStats& w : rt.stats().workers) {
    jit += w.jit_packets;
    single += w.jit_fused_packets;  // packets in single-query runs
    total += w.packets;
    lanes += w.jit_hash_lanes;
  }
  // Full coverage: every demuxed packet rides the compiled path, and most
  // of the stream activates a single query.
  EXPECT_EQ(jit, total);
  EXPECT_GT(total, 0u);
  EXPECT_GT(single, total / 2);
  // Every H op of every compiled packet hashes in a batch.  Each bench
  // chain holds at least two HHash ops (q1 two, q3/q5 four) ahead of its
  // first Stop.
  EXPECT_GE(lanes, 2 * jit);
}

// All six detector-library chains lower to compiled executors (grouped by
// shard-key family exactly as `newton_tool replay --detectors` installs
// them).
TEST(CompiledCoverage, DetectorChainsCompile) {
  const auto lib = detectors::detector_library();
  ASSERT_GE(lib.size(), 6u);
  std::vector<const detectors::Detector*> all;
  for (const auto& d : lib) all.push_back(&d);
  std::size_t chains = 0;
  for (const auto& g : detectors::group_by_shard_key(all)) {
    Analyzer an;
    NewtonSwitch sw(1, 64, nullptr);  // deep budget: concurrent chains
    RuntimeOptions ro;
    ro.shard_key = g.key;
    ro.record_snapshots = false;
    ShardedRuntime rt(sw, ro, &an);
    for (const auto* d : g.members) rt.install(d->query);
    rt.start();
    const auto cov = rt.jit_coverage();
    ASSERT_FALSE(cov.empty());
    for (const compile::QueryCoverage& c : cov)
      EXPECT_TRUE(c.compiled) << "qid " << c.qid << " in group with "
                              << g.members.front()->id;
    chains += cov.size();
    rt.finish();
  }
  // Six detectors, some multi-branch: at least one coverage entry each.
  EXPECT_GE(chains, 6u);
}

// RuntimeOptions::jit = false: the interpreter handles everything and no
// coverage is published.
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
  EXPECT_TRUE(rt.jit_coverage().empty());
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
}

// NEWTON_NO_JIT in the environment overrides the default-on option — the
// operator's kill switch needs no code change.
TEST(CompiledEscapeHatch, EnvVarDisablesJit) {
  ASSERT_EQ(setenv("NEWTON_NO_JIT", "1", 1), 0);
  {
    Analyzer an;
    NewtonSwitch sw(1, 24, nullptr);
    ShardedRuntime rt(sw, {}, &an);
    EXPECT_FALSE(rt.jit_enabled());
  }
  unsetenv("NEWTON_NO_JIT");
  {
    Analyzer an;
    NewtonSwitch sw(1, 24, nullptr);
    ShardedRuntime rt(sw, {}, &an);
    EXPECT_TRUE(rt.jit_enabled());
  }
}
