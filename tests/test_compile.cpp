// Compiled per-query executors (src/compile/, docs/compile.md): the chain
// JIT must be a pure performance transform.  Pins, on top of the difftest
// jit axis:
//   * every committed .nds corpus seed replays byte-identically with the
//     JIT on vs. off, at 1 and at 4 shards (reports AND merged register
//     state), with the compiled path actually carrying packets;
//   * a query that R stopped does not stop the chain that runs after it on
//     the same packets (one alive row, refilled per chain);
//   * the bench query set (q1/q3/q5) and all six detector-library chains
//     lower to the compiled executor;
//   * the escape hatch (RuntimeOptions::jit = false) routes every packet
//     through the interpreter;
//   * runs are cut where the active set changes, whatever the activation
//     order, and every active set runs compiled and matches the interpreter
//     through a real ShardWorker, across replica loads.
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

constexpr uint16_t kQA = 1, kQB = 2;

// Two queries on metadata set 1, one module per stage, in disjoint stage
// ranges as installs place co-active queries.  Query A filters on dport 80
// through set 0 (direct H, bypass S, R that Stops every other packet),
// then fills set 1 with its own K/H/S and reports.  Query B, in the stages
// after A's, fills set 1 again and folds its state into the global result
// A's R set.  A stopped A skips its set-1 writes but never stops B, so B
// reports every packet.
struct TwoQueryPipe {
  Pipeline pipe{12};
  ReportBuffer reports;
  std::vector<SModule*> banks;
  std::vector<TableProgram*> tables;

  TwoQueryPipe() {
    const auto place = [&](std::size_t stage, auto mod) {
      tables.push_back(mod.get());
      pipe.stage(stage).add(std::move(mod));
    };
    auto k0 = std::make_shared<KModule>("k0");
    KConfig ka;
    ka.masks[index(Field::DstPort)] = 0xffffffffu;
    k0->table().insert(kQA, ka);
    place(0, k0);

    auto h1 = std::make_shared<HModule>("h1");
    HConfig ha;
    ha.direct = true;
    ha.direct_field = Field::DstPort;
    ha.width = 0;
    h1->table().insert(kQA, ha);
    place(1, h1);

    auto s2 = std::make_shared<SModule>("s2", 128);
    SConfig sa;
    sa.bypass = true;
    s2->table().insert(kQA, sa);
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

    auto k8 = std::make_shared<KModule>("k8");
    KConfig kb;
    kb.set = 1;
    kb.masks[index(Field::SrcIp)] = 0xffffffffu;
    kb.masks[index(Field::DstIp)] = 0xffffff00u;
    k8->table().insert(kQB, kb);
    place(8, k8);

    auto h9 = std::make_shared<HModule>("h9");
    HConfig hb;
    hb.set = 1;
    hb.width = 64;
    h9->table().insert(kQB, hb);
    place(9, h9);

    auto s10 = std::make_shared<SModule>("s10", 128);
    SConfig sb;
    sb.set = 1;
    s10->table().insert(kQB, sb);
    banks.push_back(s10.get());
    place(10, s10);

    auto r11 = std::make_shared<RModule>("r11", &reports, 1);
    RConfig rb;
    rb.set = 1;
    rb.combine = RCombine::Add;
    rb.match_on_global = false;
    rb.on_match = RAction::Report;
    r11->table().insert(kQB, rb);
    place(11, r11);
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

// Runs `pkts` (activated as in load_two_query_phv) through TwoQueryPipe's
// interpreter in one burst and through a compiled copy at bursts 1, 3 and
// 64, with runs cut where the active set changes.  Reports, register
// banks and rule-hit counts must match the interpreter at every burst.
void expect_compiled_matches_interpreter(const std::vector<Packet>& pkts) {
  TwoQueryPipe interp;
  std::vector<Phv> phvs(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i)
    load_two_query_phv(phvs[i], pkts, i);
  interp.pipe.process_burst(phvs.data(), phvs.size());
  const auto want = sorted(interp.reports.records());
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

// A query that R stopped mid-run must not stop the chain that runs after
// it on the same packets: one alive row serves the run, refilled per
// chain.  Reports, register state and rule-hit counts must match the
// interpreter at every burst size.  B reports every packet it sees, so
// some B reports come from packets where A was active and then stopped.
TEST(CompiledAliveRows, StoppedQueryLeavesSharedSetToLiveQuery) {
  std::mt19937 rng(5);
  std::vector<Packet> pkts;
  const uint32_t dports[] = {80, 443, 53};
  for (std::size_t i = 0; i < 300; ++i)
    pkts.push_back(make_packet(ipv4(10, 0, 0, 1 + rng() % 4),
                               ipv4(10, 1, rng() % 3, 9), 1000 + rng() % 5,
                               dports[rng() % 3], kProtoTcp, 0, 64, i));
  expect_compiled_matches_interpreter(pkts);
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
  // Every H op of every compiled packet computes a digest.  Each bench
  // chain holds at least two HHash ops (q1 two, q3/q5 four) ahead of its
  // first Stop.
  EXPECT_GE(lanes, 2 * jit);
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
  EXPECT_EQ(jit.stats.jit_packets, jit.stats.packets);
  EXPECT_EQ(interp.stats.jit_packets, 0u);
}

// Queries 1..nq, one K/H/S/R rule each, every rule on metadata set 0, and
// query q alone in stages 4(q - 1) .. 4q - 1, as Controller chains queries
// over shared traffic.  Each query's K rewrites the set the previous one
// left, and R folds each query's state into the global result in stage
// order.
std::unique_ptr<NewtonSwitch> shared_set_switch(uint16_t nq) {
  auto sw = std::make_unique<NewtonSwitch>(1, 4 * nq, nullptr, 1024);
  const ModuleInstances& m = sw->modules();
  const Field keys[] = {Field::SrcIp, Field::DstPort, Field::SrcPort,
                        Field::DstIp};
  for (uint16_t q = 1; q <= nq; ++q) {
    const std::size_t at = 4u * (q - 1u);
    KConfig k;
    k.masks[index(keys[q % 4])] = 0xffffffffu;
    m.k[at]->table().insert(q, k);
    HConfig h;
    h.seed = q;
    h.width = 64;
    h.offset = 64 * q;
    m.h[at + 1]->table().insert(q, h);
    SConfig st;  // guarded to the query's slice, as installs guard it
    st.guard_lo = st.index_base = h.offset;
    st.guard_hi = h.offset + h.width - 1;
    m.s[at + 2]->table().insert(q, st);
    RConfig r;
    r.combine = RCombine::Add;
    r.on_match = RAction::Report;
    m.r[at + 3]->table().insert(q, r);
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

}  // namespace

// Runs are cut where the active set changes, not where the activation
// order does: co-active chains own disjoint stages, so their order is the
// stage order whatever newton_init's.  Rules {q1} (TCP) and {q2, q1}
// (dport 80) give TCP:80 the list [q1, q2] and UDP:80 the list [q2, q1];
// both queries write set 0, so executing either packet in list order
// would change its keys, registers and reports.
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
    EXPECT_LT(got.stats.jit_fused_packets, got.stats.jit_packets);
  }
}

// Eight queries, each activated by one bit of the source port, give up to
// 255 distinct active sets.  Every one runs compiled, with no bound on how
// many a replica meets, and the results stay identical.
TEST(CompiledRunKey, EveryActiveSetMatchesInterpreter) {
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
  ASSERT_GT(want.records.size(), pkts.size());
  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    const WindowOut got = run_window(*sw, pkts, burst, /*jit=*/true);
    expect_same_window(got, want);
    EXPECT_EQ(got.stats.jit_packets, pkts.size());
  }
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

// The six detectors over packets whose active sets keep alternating:
// reports, registers and rule hits stay identical to the interpreter at
// every burst size, and every packet runs compiled.  The name is older
// than the executor without plans.
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
  }
}

// A replica load at a mutation barrier lowers the chains again: the window
// after a withdraw runs only the chains left, and a later install's chain
// joins them, every packet compiled and identical to the interpreter.
// (Under ASan a run that kept a chain of the previous load would be a use
// after free.)  The name is older than the executor without plans.
TEST(CompiledPlans, MutationBarrierDropsEveryPlan) {
  DetectorSwitch d;
  const std::vector<Packet> pkts = alternating_detector_mix();
  const std::vector<Packet> half(pkts.begin(), pkts.begin() + pkts.size() / 2);
  const auto lib = detectors::detector_library();
  for (const std::size_t burst : {std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    WorkerLeg jit(d.sw, burst, true), interp(d.sw, burst, false);
    const auto step = [&](const std::vector<Packet>& p) {
      expect_same_window(jit.window(p), interp.window(p));
    };
    step(half);
    d.ctl.remove(lib.front().query.name);
    jit.load();
    interp.load();
    step({});  // a fence with no packets
    step(half);
    d.ctl.install(lib.front().query);
    jit.load();
    interp.load();
    step({});
    step(pkts);
  }
}
