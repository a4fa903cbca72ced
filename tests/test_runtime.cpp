// Sharded runtime: pipeline replica isolation, window-synchronized report
// equivalence vs. the single-threaded path (1/2/4/8 shards), per-window
// merged result snapshots, quiesced mid-stream install/withdraw, and
// backpressure accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "core/window.h"
#include "detectors/detector.h"
#include "runtime/sharded_runtime.h"
#include "runtime/spsc_ring.h"
#include "trace/attacks.h"
#include "trace/trace_gen.h"

namespace newton {
namespace {

constexpr uint64_t kWindowNs = 100'000'000;

auto rec_key(const ReportRecord& r) {
  return std::tuple(r.qid, r.ts_ns, r.oper_keys, r.hash_result,
                    r.state_result, r.global_result, r.switch_id);
}

std::vector<ReportRecord> sorted(std::vector<ReportRecord> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return rec_key(a) < rec_key(b);
  });
  return v;
}

void expect_same_records(const std::vector<ReportRecord>& a,
                         const std::vector<ReportRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(rec_key(a[i]), rec_key(b[i])) << "record " << i;
}

// Forward to an Analyzer and a ReportBuffer at once (the switch takes one
// sink; the runtime supports both natively).
struct TeeSink : ReportSink {
  Analyzer* an;
  ReportBuffer* buf;
  TeeSink(Analyzer* a, ReportBuffer* b) : an(a), buf(b) {}
  void report(const ReportRecord& r) override {
    if (an) an->report(r);
    if (buf) buf->report(r);
  }
};

// A dip-keyed reduce query over UDP traffic: stateful (count-min rows) but
// bloom-free, so its per-packet report stream is bit-exact under dip-affine
// sharding.
Query make_udp_count(uint32_t th) {
  return QueryBuilder("udp_pkts_per_dst")
      .sketch(2, 8192)
      .window_ms(100)
      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoUdp))
      .map({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, th)
      .build();
}

// Stateless per-packet exporter: reports every TCP SYN's (sip, dip).
Query make_syn_export() {
  return QueryBuilder("syn_export")
      .filter(Predicate{}
                  .where(Field::Proto, Cmp::Eq, kProtoTcp)
                  .where(Field::TcpFlags, Cmp::Eq, kTcpSyn))
      .map({Field::SrcIp, Field::DstIp})
      .build();
}

Trace attack_trace(std::size_t flows, uint32_t seed) {
  TraceProfile p = caida_like(seed);
  p.num_flows = flows;
  Trace t = generate_trace(p);
  std::mt19937 rng(seed + 99);
  inject_syn_flood(t, ipv4(172, 16, 7, 7), 200, 1, 150'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 9, 9), 120, 2, 450'000'000, rng);
  t.sort_by_time();
  return t;
}

QueryParams tuned_params() {
  QueryParams p;
  p.sketch_width = 8192;
  return p;
}

// ---------------------------------------------------------------------------
// Satellite: clone isolation
// ---------------------------------------------------------------------------

TEST(PipelineClone, SharesNoMutableState) {
  NewtonSwitch sw(1, 12, nullptr);
  Controller ctl(sw);
  ctl.install(make_q1(tuned_params()));

  Pipeline replica = sw.pipeline().clone();
  auto init = std::dynamic_pointer_cast<InitModule>(sw.init_table().clone());
  ASSERT_NE(init, nullptr);
  ASSERT_EQ(init->table().size(), sw.init_table().table().size());

  // Collect the replica's typed modules.
  std::vector<SModule*> rep_s;
  for (std::size_t i = 0; i < replica.num_stages(); ++i)
    for (const auto& t : replica.stage(i).tables())
      if (auto* s = dynamic_cast<SModule*>(t.get())) rep_s.push_back(s);
  ASSERT_FALSE(rep_s.empty());

  // Run SYNs through the replica only: its registers move, the original's
  // stay zero.
  for (int i = 0; i < 10; ++i) {
    Phv phv;
    phv.pkt = make_packet(50 + i, 99, 1, 80, kProtoTcp, kTcpSyn, 64, 1000);
    init->execute(phv);
    replica.process_burst(&phv, 1);
  }
  uint64_t replica_sum = 0, original_sum = 0;
  for (std::size_t st = 0; st < replica.num_stages(); ++st) {
    for (const auto& t : replica.stage(st).tables())
      if (auto* s = dynamic_cast<SModule*>(t.get()))
        for (std::size_t i = 0; i < s->registers().size(); ++i)
          replica_sum += s->registers().read(i);
    const RegisterArray& orig = sw.bank(st);
    for (std::size_t i = 0; i < orig.size(); ++i)
      original_sum += orig.read(i);
  }
  EXPECT_GT(replica_sum, 0u);
  EXPECT_EQ(original_sum, 0u);

  // Mutating the clone's rule tables leaves the original untouched.
  std::vector<KModule*> orig_k, rep_k;
  for (std::size_t i = 0; i < replica.num_stages(); ++i) {
    for (const auto& t : replica.stage(i).tables())
      if (auto* k = dynamic_cast<KModule*>(t.get())) rep_k.push_back(k);
    for (const auto& t : sw.pipeline().stage(i).tables())
      if (auto* k = dynamic_cast<KModule*>(t.get())) orig_k.push_back(k);
  }
  ASSERT_EQ(orig_k.size(), rep_k.size());
  for (std::size_t i = 0; i < rep_k.size(); ++i) {
    const std::size_t before = orig_k[i]->table().size();
    for (uint16_t q = 0; q < kMaxQueries; ++q) rep_k[i]->table().remove(q);
    EXPECT_EQ(orig_k[i]->table().size(), before);
    EXPECT_EQ(rep_k[i]->table().size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Tentpole: shard-count equivalence
// ---------------------------------------------------------------------------

struct RunResult {
  std::vector<ReportRecord> records;  // canonical order
  std::unique_ptr<Analyzer> an;
  std::vector<WindowSnapshot> snapshots;
  RuntimeStats stats;
};

RunResult run_direct(const Trace& t, const std::vector<Query>& queries) {
  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  TeeSink tee{out.an.get(), &buf};
  NewtonSwitch sw(1, 24, &tee);
  Controller ctl(sw);
  for (const Query& q : queries) {
    const auto st = ctl.install(q);
    for (std::size_t bi = 0; bi < st.qids.size(); ++bi)
      out.an->register_qid_any(st.qids[bi], q.name, bi);
  }
  for (const Packet& p : t.packets) sw.process(p);
  out.records = sorted(buf.records());
  return out;
}

RunResult run_sharded(const Trace& t, const std::vector<Query>& queries,
                      std::size_t shards, std::optional<ShardKey> key,
                      std::size_t burst = 64) {
  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = shards;
  o.shard_key = std::move(key);
  o.burst = burst;
  ShardedRuntime rt(sw, o, out.an.get());
  rt.set_report_sink(&buf);
  for (const Query& q : queries) rt.install(q);
  rt.run(t);
  rt.finish();
  out.records = sorted(buf.records());
  out.snapshots = rt.snapshots();
  out.stats = rt.stats();
  return out;
}

TEST(ShardEquivalence, ReportsAndSnapshotsMatchSingleThread) {
  const Trace t = attack_trace(500, 31);
  const std::vector<Query> queries = {make_q1(tuned_params()),
                                      make_udp_count(100), make_syn_export()};
  const ShardKey key = ShardKey::on({Field::DstIp});

  const RunResult ref = run_direct(t, queries);
  ASSERT_GT(ref.records.size(), 0u);
  // The injected victims are detected by the reference path.
  const KeySet q1_hits = ref.an->detected("q1_new_tcp");
  bool found = false;
  for (const KeyArray& k : q1_hits)
    found |= k[index(Field::DstIp)] == ipv4(172, 16, 7, 7);
  EXPECT_TRUE(found);

  const RunResult one = run_sharded(t, queries, 1, key);
  expect_same_records(ref.records, one.records);

  for (std::size_t n : {2u, 4u, 8u}) {
    const RunResult r = run_sharded(t, queries, n, key);
    SCOPED_TRACE("shards=" + std::to_string(n));
    // Byte-identical report stream (canonical order).
    expect_same_records(ref.records, r.records);
    // Identical analyzer views.
    for (const Query& q : queries) {
      EXPECT_EQ(ref.an->reports_for(q.name), r.an->reports_for(q.name));
      EXPECT_EQ(ref.an->detected(q.name), r.an->detected(q.name));
    }
    // Identical per-query merged result snapshots, window by window.
    ASSERT_EQ(one.snapshots.size(), r.snapshots.size());
    for (std::size_t w = 0; w < r.snapshots.size(); ++w) {
      EXPECT_EQ(one.snapshots[w].window, r.snapshots[w].window);
      EXPECT_EQ(one.snapshots[w].reports, r.snapshots[w].reports);
      EXPECT_EQ(one.snapshots[w].branches, r.snapshots[w].branches);
    }
    // Every packet went somewhere and, for n > 1, to more than one shard.
    EXPECT_EQ(r.stats.packets_in, t.size());
    uint64_t busiest = 0, total = 0;
    for (const auto& ws : r.stats.workers) {
      busiest = std::max(busiest, ws.packets);
      total += ws.packets;
    }
    EXPECT_EQ(total, t.size());
    if (n > 1) {
      EXPECT_LT(busiest, t.size());
    }
  }
}

TEST(ShardEquivalence, DistinctQueriesDetectEquivalently) {
  // Bloom-backed distinct state merges by OR; per-packet report timestamps
  // can shift with the shard layout (a false positive another key pre-set
  // may live on a different shard), but the merged per-window state and the
  // detected key sets must match the single-threaded run.
  const Trace t = attack_trace(400, 32);
  QueryParams p = tuned_params();
  const std::vector<Query> queries = {make_q5(p)};
  const RunResult ref = run_direct(t, queries);

  bool found = false;
  for (const KeyArray& k : ref.an->detected("q5_udp_ddos"))
    found |= k[index(Field::DstIp)] == ipv4(172, 16, 9, 9);
  EXPECT_TRUE(found);

  for (std::size_t n : {2u, 4u, 8u}) {
    const RunResult r =
        run_sharded(t, queries, n, ShardKey::on({Field::DstIp}));
    SCOPED_TRACE("shards=" + std::to_string(n));
    EXPECT_EQ(ref.an->detected("q5_udp_ddos"), r.an->detected("q5_udp_ddos"));
  }
}

// ---------------------------------------------------------------------------
// Tentpole: quiesced mid-stream install / withdraw
// ---------------------------------------------------------------------------

struct MutationPlan {
  uint64_t install_at_ns;   // queue the install when ts crosses this
  uint64_t withdraw_at_ns;  // queue the withdrawal when ts crosses this
  Query to_install;
  std::string to_withdraw;
};

RunResult run_sharded_mutating(
    const Trace& t, const Query& initial, const MutationPlan& plan,
    std::size_t shards, std::size_t burst = 64,
    std::optional<ShardKey> key = ShardKey::on({Field::DstIp})) {
  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = shards;
  o.shard_key = std::move(key);
  o.burst = burst;
  ShardedRuntime rt(sw, o, out.an.get());
  rt.set_report_sink(&buf);
  rt.install(initial);
  bool installed = false, withdrawn = false;
  for (const Packet& p : t.packets) {
    if (!installed && p.ts_ns >= plan.install_at_ns) {
      rt.install(plan.to_install);
      installed = true;
    }
    if (!withdrawn && p.ts_ns >= plan.withdraw_at_ns) {
      rt.withdraw(plan.to_withdraw);
      withdrawn = true;
    }
    rt.process(p);
  }
  rt.finish();
  out.records = sorted(buf.records());
  out.snapshots = rt.snapshots();
  out.stats = rt.stats();
  return out;
}

RunResult run_direct_mutating(const Trace& t, const Query& initial,
                              const MutationPlan& plan) {
  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  TeeSink tee{out.an.get(), &buf};
  NewtonSwitch sw(1, 24, &tee);
  Controller ctl(sw);
  auto reg = [&](const Query& q, const Controller::OpStats& st) {
    for (std::size_t bi = 0; bi < st.qids.size(); ++bi)
      out.an->register_qid_any(st.qids[bi], q.name, bi);
  };
  reg(initial, ctl.install(initial));
  bool inst_queued = false, wd_queued = false;
  bool inst_pending = false, wd_pending = false;
  WindowClock clock(kWindowNs);
  for (const Packet& p : t.packets) {
    if (!inst_queued && p.ts_ns >= plan.install_at_ns) {
      inst_queued = inst_pending = true;
    }
    if (!wd_queued && p.ts_ns >= plan.withdraw_at_ns) {
      wd_queued = wd_pending = true;
    }
    if (clock.rolls(p.ts_ns)) {
      // Window boundary: the runtime applies queued mutations here.
      if (inst_pending) {
        reg(plan.to_install, ctl.install(plan.to_install));
        inst_pending = false;
      }
      if (wd_pending) {
        ctl.remove(plan.to_withdraw);
        wd_pending = false;
      }
      clock.open(p.ts_ns);
    }
    sw.process(p);
  }
  out.records = sorted(buf.records());
  return out;
}

TEST(MidStreamUpdates, InstallAndWithdrawMatchSingleThreadAcrossShards) {
  const Trace t = attack_trace(500, 33);
  const Query q1 = make_q1(tuned_params());
  MutationPlan plan;
  plan.install_at_ns = 310'000'000;   // applied at the 400ms boundary
  plan.withdraw_at_ns = 710'000'000;  // applied at the 800ms boundary
  plan.to_install = make_udp_count(100);
  plan.to_withdraw = "q1_new_tcp";

  const RunResult ref = run_direct_mutating(t, q1, plan);

  // The newly installed query produces reports (the UDP flood starts at
  // 450ms, after the install boundary).
  EXPECT_GT(ref.an->reports_for("udp_pkts_per_dst"), 0u);
  EXPECT_GT(ref.an->reports_for("q1_new_tcp"), 0u);

  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    const RunResult r = run_sharded_mutating(t, q1, plan, n);
    SCOPED_TRACE("shards=" + std::to_string(n));
    expect_same_records(ref.records, r.records);
    EXPECT_EQ(r.stats.rule_updates_applied, 2u);
    EXPECT_EQ(ref.an->detected("q1_new_tcp"), r.an->detected("q1_new_tcp"));
    EXPECT_EQ(ref.an->detected("udp_pkts_per_dst"),
              r.an->detected("udp_pkts_per_dst"));
  }

  // Timing discipline: no udp_pkts_per_dst report precedes the install
  // boundary and no q1 report follows the withdrawal boundary.
  const RunResult two = run_sharded_mutating(t, q1, plan, 2);
  const auto udp_stats = two.an->stats("udp_pkts_per_dst", 0, kWindowNs);
  const auto q1_stats = two.an->stats("q1_new_tcp", 0, kWindowNs);
  EXPECT_GT(udp_stats.reports, 0u);
  EXPECT_GE(udp_stats.first_ts_ns, 400'000'000u);
  EXPECT_GT(q1_stats.reports, 0u);
  EXPECT_LT(q1_stats.last_ts_ns, 800'000'000u);
}

TEST(MidStreamUpdates, DirectControllerMutationMidWindowThrows) {
  NewtonSwitch sw(1, 24, nullptr);
  ShardedRuntime rt(sw, {});
  rt.install(make_q1(tuned_params()));  // pre-start: applies immediately
  EXPECT_TRUE(rt.controller().installed("q1_new_tcp"));

  rt.process(make_packet(1, 2, 3, 4, kProtoTcp, kTcpSyn, 64, 1'000));
  EXPECT_THROW(rt.controller().install(make_udp_count(100)),
               std::logic_error);
  EXPECT_THROW(rt.controller().remove("q1_new_tcp"), std::logic_error);
  rt.finish();
  // Quiesced again: direct mutation is allowed once more.
  rt.controller().remove("q1_new_tcp");
  EXPECT_FALSE(rt.controller().installed("q1_new_tcp"));
}

// ---------------------------------------------------------------------------
// Tentpole: burst-size invariance of the batched hot path
// ---------------------------------------------------------------------------

TEST(BurstEquivalence, ReportsIdenticalAcrossBurstSizes) {
  // The burst size only changes synchronization amortization (one ring
  // handshake and one stage-major pipeline walk per burst); it must never
  // change results.  Burst 1 reproduces the pre-batching item-at-a-time
  // handoff exactly, 7 exercises ragged window tails (bursts cut short by
  // fences), 64 is the production default.
  const Trace t = attack_trace(400, 35);
  const std::vector<Query> queries = {make_q1(tuned_params()),
                                      make_udp_count(100), make_syn_export()};
  const ShardKey key = ShardKey::on({Field::DstIp});

  const RunResult ref = run_sharded(t, queries, 2, key, /*burst=*/1);
  ASSERT_GT(ref.records.size(), 0u);

  for (std::size_t burst : {7u, 64u}) {
    const RunResult r = run_sharded(t, queries, 2, key, burst);
    SCOPED_TRACE("burst=" + std::to_string(burst));
    expect_same_records(ref.records, r.records);
    ASSERT_EQ(ref.snapshots.size(), r.snapshots.size());
    for (std::size_t w = 0; w < r.snapshots.size(); ++w) {
      EXPECT_EQ(ref.snapshots[w].window, r.snapshots[w].window);
      EXPECT_EQ(ref.snapshots[w].reports, r.snapshots[w].reports);
      EXPECT_EQ(ref.snapshots[w].branches, r.snapshots[w].branches);
    }
    EXPECT_EQ(r.stats.packets_in, t.size());
  }
}

TEST(BurstEquivalence, MidStreamMutationsUnaffectedByBurst) {
  // Rule installs/withdrawals ride window barriers, which flush the demux
  // staging buffers first — so the window a mutation lands in must not
  // depend on the burst size.
  const Trace t = attack_trace(400, 36);
  const Query q1 = make_q1(tuned_params());
  MutationPlan plan;
  plan.install_at_ns = 310'000'000;
  plan.withdraw_at_ns = 710'000'000;
  plan.to_install = make_udp_count(100);
  plan.to_withdraw = "q1_new_tcp";

  const RunResult ref = run_sharded_mutating(t, q1, plan, 4, /*burst=*/1);
  ASSERT_GT(ref.records.size(), 0u);

  for (std::size_t burst : {7u, 64u}) {
    const RunResult r = run_sharded_mutating(t, q1, plan, 4, burst);
    SCOPED_TRACE("burst=" + std::to_string(burst));
    expect_same_records(ref.records, r.records);
    EXPECT_EQ(r.stats.rule_updates_applied, 2u);
    EXPECT_EQ(ref.an->detected("q1_new_tcp"), r.an->detected("q1_new_tcp"));
    EXPECT_EQ(ref.an->detected("udp_pkts_per_dst"),
              r.an->detected("udp_pkts_per_dst"));
  }
}

// One item through the ring's bulk API: the blocking push (no deadline) and
// a blocking in-place peek plus consume.
template <typename T>
bool push_one(SpscRing<T>& ring, T v, uint64_t timeout_ms = 0) {
  return ring.push_bulk_for(&v, 1, timeout_ms, nullptr).ok;
}

template <typename T>
T pop_one(SpscRing<T>& ring) {
  const T v = ring.wait_peek(1)[0];
  ring.consume(1);
  return v;
}

TEST(SpscRing, BulkTransferRoundTrips) {
  SpscRing<int> ring(8);

  // Partial prefix push into a ring with limited space.
  int src[12];
  for (int i = 0; i < 12; ++i) src[i] = i;
  EXPECT_EQ(ring.try_push_bulk(src, 12), 8u);   // capacity-bounded
  EXPECT_EQ(ring.try_push_bulk(src + 8, 4), 0u);

  // Peek reads the slots in place and does not consume; consume advances
  // exactly n.
  std::span<const int> s = ring.peek(16);
  ASSERT_EQ(s.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(s[i], i);
  EXPECT_EQ(ring.peek(16).data(), s.data());  // unchanged
  EXPECT_EQ(ring.peek(3).size(), 3u);         // capped at max
  ring.consume(3);
  s = ring.peek(16);
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0], 3);
  EXPECT_EQ(ring.try_push_bulk(src + 8, 4), 3u);  // freed space reused
  // The consumer-side tail cache refreshes lazily, and a peek stops at the
  // physical end of the buffer, so one peek may see a smaller burst than
  // is queued — drain and check the whole sequence.
  std::vector<int> drained;
  for (s = ring.peek(16); !s.empty(); s = ring.peek(16)) {
    drained.insert(drained.end(), s.begin(), s.end());
    ring.consume(s.size());
  }
  ASSERT_EQ(drained.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(drained[i], 3 + i);

  // Blocking bulk push reports partial progress on close.
  SpscRing<int> closing(4);
  std::size_t pushed = 0;
  EXPECT_TRUE(closing.push_bulk_for(src, 4, 1'000, &pushed).ok);
  EXPECT_EQ(pushed, 4u);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    closing.close();
  });
  const auto r = closing.push_bulk_for(src, 4, 60'000, &pushed);
  closer.join();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(pushed, 0u);

  // Wraparound: a bulk push splits across the physical end of the buffer,
  // and the in-place peek hands the burst back in two contiguous pieces
  // that end exactly at the wrap.
  SpscRing<int> wrap(8);
  uint64_t tail = 0;
  for (int round = 0; round < 5; ++round) {
    ASSERT_EQ(wrap.try_push_bulk(src, 5), 5u);
    std::vector<int> got;
    while (got.size() < 5) {
      const std::span<const int> piece = wrap.peek(5);
      ASSERT_FALSE(piece.empty());
      const std::size_t slot = (tail + got.size()) % 8;
      EXPECT_LE(slot + piece.size(), 8u) << "peek crossed the wrap";
      if (slot + (5 - got.size()) > 8) {
        EXPECT_EQ(piece.size(), 8 - slot) << "peek stopped short of the wrap";
      }
      got.insert(got.end(), piece.begin(), piece.end());
      wrap.consume(piece.size());
    }
    tail += 5;
    ASSERT_EQ(got.size(), 5u);
    for (int i = 0; i < 5; ++i) ASSERT_EQ(got[i], i);
  }
}

// ---------------------------------------------------------------------------
// SPSC ring: the park/wake race (item published between the last failed
// attempt and the waiting-flag store) and end-to-end wakeup latency
// ---------------------------------------------------------------------------

TEST(SpscRing, ParkRecheckSeesItemPublishedBeforeWait) {
  // The park test hook fires in exactly the racy window: after the caller's
  // spin phase gave up, before the waiting flag is published.  An item
  // pushed there got no wake() (the flag still read false), so a park that
  // does not re-check the ring after publishing the flag sleeps its full
  // 1ms timeout with data sitting in the queue.  Nothing else touches the
  // ring, so no park may end by timeout.
  SpscRing<int> ring(8);
  int next = 0;
  ring.set_park_test_hook([&] {
    ++next;
    ASSERT_EQ(ring.try_push_bulk(&next, 1), 1u);
  });

  constexpr int kIters = 16;
  for (int i = 1; i <= kIters; ++i) EXPECT_EQ(pop_one(ring), i);
  EXPECT_EQ(next, kIters) << "every pop should have parked once";
  EXPECT_EQ(ring.park_timeouts(), 0u);
}

TEST(SpscRing, PushAfterCloseFailsFastAndWakesWaiters) {
  SpscRing<int> ring(4);
  ASSERT_TRUE(push_one(ring, 1));
  ring.close();
  EXPECT_TRUE(ring.closed());

  // Closed ring: non-blocking and blocking pushes both refuse immediately —
  // the demux must see the failure and fail the shard over, never enqueue
  // into a dead worker's ring.
  const int two = 2;
  EXPECT_EQ(ring.try_push_bulk(&two, 1), 0u);
  std::size_t pushed = 1;
  const int three = 3;
  const auto res = ring.push_bulk_for(&three, 1, /*timeout_ms=*/1'000,
                                      &pushed);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(pushed, 0u);

  // Items accepted before the close still drain (the failover path salvages
  // the backlog), and close() is idempotent.
  const std::span<const int> left = ring.peek(4);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], 1);
  ring.consume(1);
  EXPECT_TRUE(ring.peek(4).empty());
  ring.close();
  EXPECT_TRUE(ring.closed());

  // A producer blocked on a full ring is released promptly by close(),
  // instead of sleeping out its full deadline: the close lands once the
  // producer has parked, and after it the producer may finish at most the
  // park already under way (each park lasts at most 1ms) — it never parks
  // again until its 5s deadline runs out.
  SpscRing<int> full(1);
  ASSERT_TRUE(push_one(full, 7));
  std::atomic<bool> parked{false};
  std::atomic<int> parks_after_close{0};
  full.set_park_test_hook([&] {
    if (full.closed()) ++parks_after_close;
    parked.store(true);
  });
  std::thread closer([&] {
    while (!parked.load()) std::this_thread::yield();
    full.close();
  });
  const bool blocked = push_one(full, 8, /*timeout_ms=*/5'000);
  closer.join();
  EXPECT_FALSE(blocked);
  EXPECT_LE(parks_after_close.load(), 1);
}

TEST(SpscRing, PingPongLatency) {
  // Two rings, two threads, one item in flight: every blocking primitive
  // (spin, park, wake) is on the critical path of each round trip.  A
  // missed wakeup makes a park sleep out its 1ms timeout, so systematic
  // misses cost about one timeout per round trip; a healthy ring times out
  // only when the scheduler keeps the other thread off the CPU for 1ms.
  // The bound allows under 0.9 timeouts per round trip on average (0.9ms
  // of timeout sleep each); scheduler delay that costs no timeout does not
  // count against it.
  SpscRing<int> up(4), down(4);
  constexpr int kRounds = 1000;
  std::thread echo([&] {
    for (int i = 0; i < kRounds; ++i) push_one(down, pop_one(up) + 1);
  });
  for (int i = 0; i < kRounds; ++i) {
    push_one(up, i);
    ASSERT_EQ(pop_one(down), i + 1);
  }
  echo.join();
  EXPECT_LT(up.park_timeouts() + down.park_timeouts(), 0.9 * kRounds);
}

// ---------------------------------------------------------------------------
// Key groups: the runtime derives its shard keys from the installed queries,
// so every shard count is exact for any query mix
// ---------------------------------------------------------------------------

// Every branch of `qs`, qids numbered in install order.
std::vector<ShardBranch> branches_of(const std::vector<Query>& qs) {
  std::vector<ShardBranch> out;
  for (const Query& q : qs)
    for (const BranchDef& b : q.branches)
      out.push_back({static_cast<uint16_t>(out.size()), &b});
  return out;
}

// distinct(sip, dport) then reduce(dip): no field common to both stateful
// primitives, so no shard key is affine for it.
Query make_keyless() {
  return QueryBuilder("keyless")
      .sketch(2, 8192)
      .window_ms(100)
      .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp))
      .map({Field::SrcIp, Field::DstPort})
      .distinct({Field::SrcIp, Field::DstPort})
      .map({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, 20)
      .build();
}

TEST(ShardGroups, DerivedFromCommonStatefulFields) {
  // The detector library's groups are checked in test_detectors, the
  // single-query cases in test_difftest.
  // q1 and q5 reduce on dip, q3 on sip: two groups, in install order.
  const QueryParams p = tuned_params();
  const std::vector<Query> q135 = {make_q1(p), make_q3(p), make_q5(p)};
  const auto qg = derive_shard_groups(branches_of(q135));
  ASSERT_EQ(qg.size(), 2u);
  EXPECT_EQ(qg[0].key, ShardKey::on({Field::DstIp}));
  EXPECT_EQ(qg[0].qids, (std::vector<uint16_t>{0, 2}));
  EXPECT_EQ(qg[1].key, ShardKey::on({Field::SrcIp}));
  EXPECT_EQ(qg[1].qids, (std::vector<uint16_t>{1}));

  // An explicit key is group 0 as given; the rest group as derived.
  const auto eg = derive_shard_groups(branches_of(q135),
                                      ShardKey::on({Field::SrcIp}));
  ASSERT_EQ(eg.size(), 2u);
  EXPECT_EQ(eg[0].key, ShardKey::on({Field::SrcIp}));
  EXPECT_EQ(eg[0].qids, (std::vector<uint16_t>{1}));
  EXPECT_EQ(eg[1].key, ShardKey::on({Field::DstIp}));
  // A constant key is affine for every branch.
  EXPECT_EQ(derive_shard_groups(branches_of(q135), ShardKey::on({})).size(),
            1u);

  // A branch with no common field runs pinned on the constant key, and a
  // stateless branch joins group 0.
  const std::vector<Query> mixed = {make_udp_count(40), make_keyless(),
                                    make_syn_export()};
  const auto mg = derive_shard_groups(branches_of(mixed));
  ASSERT_EQ(mg.size(), 2u);
  EXPECT_EQ(mg[0].key, ShardKey::on({Field::DstIp}));
  EXPECT_EQ(mg[0].qids, (std::vector<uint16_t>{0, 2}));
  EXPECT_TRUE(mg[1].pinned);
  EXPECT_EQ(mg[1].key, ShardKey::on({}));
  EXPECT_EQ(mg[1].qids, (std::vector<uint16_t>{1}));
}

TEST(ShardGroups, DipKeyedCountReportsOnceAtAnyShardCount) {
  // 60 UDP packets to one victim in window 5 against a threshold of 40,
  // with default options: every shard count sees all 60 on one shard.
  Trace t;
  for (uint32_t i = 0; i < 60; ++i)
    t.packets.push_back(make_packet(ipv4(10, 0, 0, 1 + i), ipv4(172, 16, 9, 9),
                                    1000 + i, 53, kProtoUdp, 0, 64,
                                    5 * kWindowNs + 1'000 * i));
  for (std::size_t n : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    const RunResult r = run_sharded(t, {make_udp_count(40)}, n, std::nullopt);
    EXPECT_EQ(r.records.size(), 1u);
  }
}

TEST(ShardGroups, Q135DefaultOptionsMatchDirectSwitch) {
  // q1/q5 (dip) and q3 (sip) have no common key: two groups, each exact.
  // Merged state is compared for q1 only: every shard keeps its own bloom,
  // so a pair another shard's keys would have false-positive-suppressed in
  // a single bloom is counted by q3/q5's reduce (docs/runtime.md).
  const Trace t = attack_trace(500, 31);
  const QueryParams p = tuned_params();
  const std::vector<Query> queries = {make_q1(p), make_q3(p), make_q5(p)};
  const RunResult ref = run_direct(t, queries);
  ASSERT_GT(ref.records.size(), 0u);
  const RunResult one = run_sharded(t, queries, 1, std::nullopt);
  expect_same_records(ref.records, one.records);
  for (std::size_t n : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    const RunResult r = run_sharded(t, queries, n, std::nullopt);
    expect_same_records(ref.records, r.records);
    ASSERT_EQ(one.snapshots.size(), r.snapshots.size());
    for (std::size_t w = 0; w < r.snapshots.size(); ++w) {
      EXPECT_EQ(one.snapshots[w].reports, r.snapshots[w].reports);
      ASSERT_EQ(one.snapshots[w].branches.size(),
                r.snapshots[w].branches.size());
      for (std::size_t b = 0; b < r.snapshots[w].branches.size(); ++b) {
        if (r.snapshots[w].branches[b].query != "q1_new_tcp") continue;
        EXPECT_EQ(one.snapshots[w].branches[b], r.snapshots[w].branches[b]);
      }
    }
    for (const Query& q : queries)
      EXPECT_EQ(ref.an->detected(q.name), r.an->detected(q.name));
    // One visit per packet per distinct shard of its two groups.
    EXPECT_EQ(r.stats.packets_in, t.size());
    EXPECT_GT(r.stats.shard_visits, t.size());
    EXPECT_LE(r.stats.shard_visits, 2 * t.size());
  }
}

TEST(ShardGroups, SixDetectorsInOneRuntimeMatchOneShard) {
  const Trace t = attack_trace(500, 31);
  std::vector<Query> queries;
  for (const auto& d : detectors::detector_library())
    queries.push_back(d.query);
  const auto run = [&](std::size_t n) {
    ReportBuffer buf;
    NewtonSwitch sw(1, 64, nullptr);  // deep budget: concurrent chains
    RuntimeOptions o;
    o.num_shards = n;
    o.record_snapshots = false;
    ShardedRuntime rt(sw, o);
    rt.set_report_sink(&buf);
    for (const Query& q : queries) rt.install(q);
    rt.run(t);
    rt.finish();
    EXPECT_EQ(rt.shard_groups().size(), 3u);
    return sorted(buf.records());
  };
  // Compared without state_result, the value of one count-min row: a row
  // bucket sums every key hashed into it, and at 4 shards only the keys of
  // its own shard.  The estimate (global_result, the minimum over rows)
  // and everything else must match.
  const auto key = [](const ReportRecord& r) {
    return std::tuple(r.qid, r.ts_ns, r.oper_keys, r.hash_result,
                      r.global_result);
  };
  const std::vector<ReportRecord> one = run(1);
  const std::vector<ReportRecord> four = run(4);
  ASSERT_GT(one.size(), 0u);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    ASSERT_EQ(key(one[i]), key(four[i])) << "record " << i;
}

TEST(ShardGroups, GroupsChangeAtMidStreamBarrier) {
  // Start dip-keyed only (one group), queue q3 (sip-keyed) mid-stream: the
  // barrier that installs it re-derives two groups.
  const Trace t = attack_trace(500, 33);
  MutationPlan plan;
  plan.install_at_ns = 310'000'000;  // applied at the 400ms boundary
  plan.withdraw_at_ns = ~0ull;       // never
  plan.to_install = make_q3(tuned_params());
  const Query udp = make_udp_count(100);
  const RunResult ref = run_direct_mutating(t, udp, plan);
  ASSERT_GT(ref.an->reports_for("udp_pkts_per_dst"), 0u);
  const RunResult r =
      run_sharded_mutating(t, udp, plan, 4, 64, std::nullopt);
  expect_same_records(ref.records, r.records);
  EXPECT_EQ(r.stats.rule_updates_applied, 1u);
}

TEST(ShardGroups, KilledShardInTwoGroupRunStaysExact) {
  const Trace t = attack_trace(500, 31);
  const QueryParams p = tuned_params();
  const std::vector<Query> queries = {make_q1(p), make_q3(p), make_q5(p)};
  const RunResult ref = run_direct(t, queries);
  for (const std::size_t kill_at : {t.size() / 3, t.size() / 2}) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    ReportBuffer buf;
    NewtonSwitch sw(1, 24, nullptr);
    RuntimeOptions o;
    o.num_shards = 2;
    o.record_snapshots = false;
    ShardedRuntime rt(sw, o);
    rt.set_report_sink(&buf);
    for (const Query& q : queries) rt.install(q);
    rt.start();
    ASSERT_EQ(rt.shard_groups().size(), 2u);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i == kill_at) rt.kill_shard_for_test(1);
      rt.process(t.packets[i]);
    }
    rt.finish();
    expect_same_records(ref.records, sorted(buf.records()));
    EXPECT_EQ(rt.stats().worker_failovers, 1u);
    EXPECT_EQ(rt.stats().abandoned_packets, 0u);
  }
}

TEST(ShardGroups, PinnedBranchExactAndFlagged) {
  const Trace t = attack_trace(400, 37);
  const std::vector<Query> queries = {make_udp_count(100), make_keyless()};
  const RunResult ref = run_direct(t, queries);
  ASSERT_GT(ref.an->reports_for("keyless"), 0u);
  telemetry::Registry reg;
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = 4;
  o.registry = &reg;
  ShardedRuntime rt(sw, o);
  rt.set_report_sink(&buf);
  for (const Query& q : queries) rt.install(q);
  rt.run(t);
  rt.finish();
  expect_same_records(ref.records, sorted(buf.records()));
  const telemetry::Snapshot snap = reg.snapshot();
  const auto* groups = snap.find("newton_runtime_shard_groups");
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(groups->value, 2.0);
  const auto* pinned =
      snap.find("newton_runtime_shard_pinned", {{"query", "keyless"}});
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->value, 1.0);
  EXPECT_EQ(snap.find("newton_runtime_shard_pinned",
                      {{"query", "udp_pkts_per_dst"}}),
            nullptr);
  const auto* visits = snap.find("newton_runtime_shard_visits_total");
  ASSERT_NE(visits, nullptr);
  EXPECT_EQ(visits->value, static_cast<double>(rt.stats().shard_visits));
}

// ---------------------------------------------------------------------------
// Window clock: a late packet folds into the open window
// ---------------------------------------------------------------------------

// 60 UDP packets to one victim in window 5.  One more arrives after the
// 31st: stamped 1 ms into window 4 when `late`, else at window 5's start
// (where the fold puts it).
Trace late_probe(bool late) {
  Trace t;
  for (uint32_t i = 0; i < 60; ++i) {
    t.packets.push_back(make_packet(ipv4(10, 0, 0, 1 + i), ipv4(172, 16, 9, 9),
                                    1000 + i, 53, kProtoUdp, 0, 64,
                                    5 * kWindowNs + 1'000 * i));
    if (i == 30)
      t.packets.push_back(make_packet(
          ipv4(10, 0, 1, 1), ipv4(172, 16, 9, 9), 999, 53, kProtoUdp, 0, 64,
          late ? 4 * kWindowNs + 1'000'000 : 5 * kWindowNs));
  }
  return t;
}

std::vector<uint32_t> all_banks(NewtonSwitch& sw) {
  std::vector<uint32_t> out;
  for (std::size_t st = 0; st < sw.num_stages(); ++st)
    for (std::size_t i = 0; i < sw.bank(st).size(); ++i)
      out.push_back(sw.bank(st).read(i));
  return out;
}

TEST(WindowClock, LatePacketFoldsIntoOpenWindow) {
  // Count 61 >= 40 in window 5: one report.  Rolling back to window 4 for
  // the late packet (and forward again after it) would wipe the first 31
  // and report nothing.
  const Query q = make_udp_count(40);
  const Trace late = late_probe(true);
  const Trace restamped = late_probe(false);
  {
    SCOPED_TRACE("direct switch");
    ReportBuffer buf, ref_buf;
    NewtonSwitch sw(1, 24, &buf), ref(1, 24, &ref_buf);
    sw.install(compile_query(q));
    ref.install(compile_query(q));
    for (const Packet& p : late.packets) sw.process(p);
    for (const Packet& p : restamped.packets) ref.process(p);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(window_of(buf.records()[0].ts_ns, kWindowNs), 5u);
    EXPECT_EQ(sw.late_packets(), 1u);
    EXPECT_EQ(ref.late_packets(), 0u);
    EXPECT_EQ(all_banks(sw), all_banks(ref));
  }
  for (std::size_t n : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    const RunResult r = run_sharded(late, {q}, n, std::nullopt);
    const RunResult ref = run_sharded(restamped, {q}, n, std::nullopt);
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(window_of(r.records[0].ts_ns, kWindowNs), 5u);
    EXPECT_EQ(r.stats.late_packets, 1u);
    EXPECT_EQ(ref.stats.late_packets, 0u);
    std::vector<uint64_t> windows;
    for (const WindowSnapshot& snap : r.snapshots) windows.push_back(snap.window);
    EXPECT_EQ(windows, (std::vector<uint64_t>{0, 5}));
    ASSERT_EQ(ref.snapshots.size(), 2u);
    ASSERT_EQ(r.snapshots.size(), 2u);
    EXPECT_EQ(r.snapshots[1].branches, ref.snapshots[1].branches);
  }
}

// ---------------------------------------------------------------------------
// Backpressure: tiny rings stall the demux but never corrupt results
// ---------------------------------------------------------------------------

TEST(Backpressure, CountedAndLossless) {
  const Trace t = attack_trace(300, 34);
  const std::vector<Query> queries = {make_q1(tuned_params())};
  const RunResult ref = run_direct(t, queries);

  RunResult out;
  out.an = std::make_unique<Analyzer>();
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = 2;
  o.queue_capacity = 1;  // every push races the consumer
  o.shard_key = ShardKey::on({Field::DstIp});
  o.record_snapshots = false;
  ShardedRuntime rt(sw, o, out.an.get());
  rt.set_report_sink(&buf);
  for (const Query& q : queries) rt.install(q);
  rt.run(t);
  rt.finish();

  EXPECT_GT(rt.stats().backpressure_stalls, 0u);
  expect_same_records(ref.records, sorted(buf.records()));
}

}  // namespace
}  // namespace newton
