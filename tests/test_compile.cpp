// Compiled per-query executors (src/compile/, docs/compile.md): the chain
// JIT must be a pure performance transform.  Pins, on top of the difftest
// jit axis:
//   * every committed .nds corpus seed replays byte-identically with the
//     JIT on vs. off, at 1 and at 4 shards (reports AND merged register
//     state), with the compiled path actually carrying packets;
//   * the bench query set (q1/q3/q5) and all six detector-library chains
//     lower to compiled executors, with the bench set hitting the fused
//     shape registry;
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
#include "core/newton_switch.h"
#include "core/queries.h"
#include "core/report.h"
#include "detectors/detector.h"
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

}  // namespace

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
// shapes land in the fused registry (the 3x single-core model-pps claim in
// BENCH_runtime.json rides on the fused executors, not the generic merge).
TEST(CompiledCoverage, BenchQueriesCompileFused) {
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
  std::size_t fused = 0;
  for (const compile::QueryCoverage& c : cov) {
    EXPECT_TRUE(c.compiled) << "qid " << c.qid << " fell back to interpreter";
    fused += c.fused;
  }
  EXPECT_EQ(fused, cov.size()) << "bench chains must hit the fused registry";

  const Trace t = bench_trace(31);
  for (const Packet& pk : t.packets) rt.process(pk);
  rt.finish();
  uint64_t jit = 0, fused_pk = 0, total = 0, lanes = 0;
  for (const WorkerStats& w : rt.stats().workers) {
    jit += w.jit_packets;
    fused_pk += w.jit_fused_packets;
    total += w.packets;
    lanes += w.jit_hash_lanes;
  }
  // Full coverage: every demuxed packet rides the compiled path.  Packets
  // active in one query run fused; packets active in several queries take
  // the generic merge (cross-chain global_result combines couple them), so
  // fused is the dominant share but not the whole stream.
  EXPECT_EQ(jit, total);
  EXPECT_GT(total, 0u);
  EXPECT_GT(fused_pk, total / 2);
  // Every H op of every compiled packet hashes in a batch, fused and
  // generic alike.  Each bench chain holds at least two HHash ops (q1 two,
  // q3/q5 four).
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
