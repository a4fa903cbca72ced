// Multi-tenant churn robustness (docs/admission.md): rejected installs are
// byte-identical no-ops (including racing a concurrent withdraw), a
// mutation in every window still runs every packet compiled, online
// compaction converts fragmentation rejections into admissions, tenant
// quotas hold, and a flapping switch ends in FAILED_PERMANENT with clean
// rollback — never a wedged controller.  This suite runs under TSan in CI.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "core/window.h"
#include "fault/install_faults.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"

namespace newton {
namespace {

// Small disjoint-traffic query on its own dst port; the low threshold
// makes every matching packet report, so byte-identity checks see real
// output, not silence.
Query port_query(const std::string& name, uint16_t dport,
                 std::size_t width = 256) {
  QueryBuilder b(name);
  b.sketch(2, width);
  b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq, dport))
      .map({Field::SrcIp})
      .reduce({Field::SrcIp}, Agg::Sum)
      .when(Cmp::Ge, 1);
  Query q = b.build();
  q.window_ns = 100'000'000;
  q.row_partitions = 1;
  return q;
}

// An install no bank in these tests can host: one row wants 2^21 registers.
Query doomed_query(const std::string& name) {
  return port_query(name, 50'000, std::size_t{1} << 21);
}

// Round-robin traffic over dports [20000, 20000+nports), `win` windows of
// `per_win` packets each.
Trace port_trace(std::size_t nports, std::size_t win, std::size_t per_win) {
  Trace t;
  t.name = "churn";
  for (std::size_t w = 0; w < win; ++w)
    for (std::size_t i = 0; i < per_win; ++i) {
      const uint64_t ts = w * 100'000'000ull + i * 1'000'000ull;
      t.packets.push_back(make_packet(
          ipv4(10, 0, static_cast<uint8_t>(i % 17), static_cast<uint8_t>(i)),
          ipv4(172, 16, 0, 1), 1234,
          static_cast<uint32_t>(20'000 + i % nports), 6, 0, 64, ts));
    }
  return t;
}

// Full byte-level digest of a switch: per-stage allocator maps, table
// sizes, every register bank word, init table size, qid pool.  A rejected
// install never allocates (admission is pure), so even free-range bytes
// must survive untouched.
struct SwitchDigest {
  std::vector<std::map<std::size_t, std::size_t>> allocs;
  std::vector<std::size_t> tables;
  std::vector<uint32_t> banks;
  std::size_t init_size = 0, free_qids = 0, installs = 0, rules = 0;

  friend bool operator==(const SwitchDigest&, const SwitchDigest&) = default;
};

SwitchDigest digest(NewtonSwitch& sw) {
  SwitchDigest d;
  const ModuleInstances& inst = sw.modules();
  for (std::size_t st = 0; st < sw.num_stages(); ++st) {
    d.allocs.push_back(sw.bank_allocator(st).allocations());
    d.tables.push_back(inst.k[st]->table().size());
    d.tables.push_back(inst.h[st]->table().size());
    d.tables.push_back(inst.s[st]->table().size());
    d.tables.push_back(inst.r[st]->table().size());
    const RegisterArray& bank = sw.bank(st);
    for (std::size_t i = 0; i < bank.size(); ++i)
      d.banks.push_back(bank.read(i));
  }
  d.init_size = sw.init_table().table().size();
  d.free_qids = sw.free_qids();
  d.installs = sw.num_installs();
  d.rules = sw.installed_rule_count();
  return d;
}

bool same_record(const ReportRecord& a, const ReportRecord& b) {
  return a.qid == b.qid && a.switch_id == b.switch_id && a.ts_ns == b.ts_ns &&
         a.oper_keys == b.oper_keys && a.hash_result == b.hash_result &&
         a.state_result == b.state_result && a.global_result == b.global_result &&
         a.deferred == b.deferred && a.next_slice == b.next_slice;
}

// ---------------------------------------------------------------------------
// Rejected installs are byte-identical no-ops
// ---------------------------------------------------------------------------

TEST(RejectedInstall, LeavesSwitchControllerAndTelemetryUntouched) {
  telemetry::Registry::global().reset();
  Analyzer an;
  NewtonSwitch sw(1, 24, &an, 1 << 14);
  Controller ctl(sw);
  for (int i = 0; i < 6; ++i)
    ctl.install(port_query("q" + std::to_string(i),
                           static_cast<uint16_t>(20'000 + i)),
                {}, "t" + std::to_string(i % 2));
  // Put live state into the allocated ranges so the digest has bytes that
  // a sloppy rollback could plausibly disturb.
  const Trace t = port_trace(6, 2, 50);
  for (const Packet& p : t.packets) sw.process(p);

  const SwitchDigest before = digest(sw);
  const auto tele_before = telemetry::Registry::global().snapshot();
  const std::size_t tenants_before = ctl.tenant_usage("t0").queries;

  const auto out = ctl.try_install(doomed_query("boom"), {}, "t0");
  ASSERT_FALSE(out.admitted());
  EXPECT_EQ(out.decision.code, AdmitCode::kRegisterOverflow);
  EXPECT_FALSE(ctl.installed("boom"));
  EXPECT_EQ(ctl.num_installed(), 6u);
  EXPECT_EQ(ctl.tenant_usage("t0").queries, tenants_before);
  EXPECT_EQ(digest(sw), before);

  // The only telemetry allowed to move is the admission/rejection
  // accounting itself — every other series must be byte-identical.
  const auto tele_after = telemetry::Registry::global().snapshot();
  std::map<std::string, double> changed;
  for (const auto& s : tele_after.samples) {
    const telemetry::Sample* old = tele_before.find(s.name, s.labels);
    const double was = old ? old->value : 0.0;
    if (s.value != was || (old && old->count != s.count))
      changed[s.name] = s.value - was;
  }
  for (const auto& [name, delta] : changed)
    EXPECT_TRUE(name.rfind("newton_admission", 0) == 0 ||
                name.rfind("newton_tenant_rejects", 0) == 0)
        << name << " moved by " << delta << " on a rejected install";
  EXPECT_TRUE(changed.contains("newton_admission_total"));
}

// The switch runs one window: the installed queries'.  A query with
// another window is refused before anything touches the switch.
TEST(RejectedInstall, WindowMismatchLeavesSwitchByteIdentical) {
  Analyzer an;
  NewtonSwitch sw(1, 24, &an, 1 << 14);
  Controller ctl(sw);
  ctl.install(port_query("q100", 20'000));
  const Trace t = port_trace(2, 2, 50);
  for (const Packet& p : t.packets) sw.process(p);

  Query q50 = port_query("q50", 20'001);
  q50.window_ns = 50'000'000;
  const SwitchDigest before = digest(sw);
  const auto out = ctl.try_install(q50);
  ASSERT_FALSE(out.admitted());
  EXPECT_EQ(out.decision.code, AdmitCode::kWindowMismatch);
  EXPECT_FALSE(ctl.installed("q50"));
  EXPECT_EQ(digest(sw), before);
  // The switch refuses it on its own, too.
  EXPECT_THROW(sw.install(compile_query(q50)), std::invalid_argument);
  EXPECT_EQ(digest(sw), before);
  EXPECT_EQ(sw.window_ns(), 100'000'000u);

  // Emptied, the switch keeps its last window until an install adopts one.
  ctl.remove("q100");
  EXPECT_EQ(sw.window_ns(), 100'000'000u);
  ctl.install(q50);
  EXPECT_EQ(sw.window_ns(), 50'000'000u);
}

TEST(RejectedInstall, WindowMismatchQueuedThroughRuntimeIsCounted) {
  NewtonSwitch sw(1, 24, nullptr, 1 << 14);
  ShardedRuntime rt(sw);
  rt.install(port_query("q100", 20'000));
  rt.start();
  const Trace t = port_trace(2, 3, 40);
  Query q50 = port_query("q50", 20'001);
  q50.window_ns = 50'000'000;
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    if (i == 10) rt.install(q50);  // applies at window 0's barrier
    rt.process(t.packets[i]);
  }
  rt.finish();
  EXPECT_EQ(rt.stats().installs_rejected, 1u);
  EXPECT_EQ(rt.stats().rule_updates_applied, 0u);
  ASSERT_EQ(rt.rejections().size(), 1u);
  EXPECT_EQ(rt.rejections()[0].query, "q50");
  EXPECT_EQ(rt.rejections()[0].decision.code, AdmitCode::kWindowMismatch);
  EXPECT_EQ(rt.rejections()[0].window, 0u);
  EXPECT_FALSE(rt.controller().installed("q50"));
  EXPECT_EQ(rt.stats().windows, 3u);
}

TEST(RejectedInstall, RacingWithdrawMatchesWithdrawOnlyRun) {
  // Two identical runtimes replay the same trace; one additionally queues
  // an inadmissible install in the SAME barrier batch as a withdraw.  The
  // rejection must be recorded and the final data-plane state and report
  // stream must match the withdraw-only twin byte for byte.
  const Trace t = port_trace(6, 4, 50);
  auto run = [&](bool with_doomed, std::vector<ReportRecord>& reports,
                 SwitchDigest& dig, std::size_t& rejected) {
    telemetry::Registry::global().reset();
    Analyzer an;
    NewtonSwitch sw(1, 24, &an, 1 << 14);
    RuntimeOptions ro;
    ro.num_shards = 2;
    ShardedRuntime rt(sw, ro, &an);
    ReportBuffer buf;
    rt.set_report_sink(&buf);
    for (int i = 0; i < 6; ++i)
      rt.install(port_query(std::string("q").append(std::to_string(i)),
                            static_cast<uint16_t>(20'000 + i)));
    rt.start();
    bool queued = false;
    for (const Packet& p : t.packets) {
      if (!queued && p.ts_ns >= 150'000'000ull) {
        queued = true;
        rt.withdraw("q3");
        if (with_doomed) rt.install(doomed_query("boom"));
      }
      rt.process(p);
    }
    rt.finish();
    reports = buf.records();
    dig = digest(sw);
    rejected = rt.stats().installs_rejected;
    if (with_doomed) {
      ASSERT_EQ(rt.rejections().size(), 1u);
      EXPECT_EQ(rt.rejections()[0].query, "boom");
      EXPECT_EQ(rt.rejections()[0].decision.code,
                AdmitCode::kRegisterOverflow);
    }
  };

  std::vector<ReportRecord> ra, rb;
  SwitchDigest da, db;
  std::size_t reja = 0, rejb = 0;
  run(false, ra, da, reja);
  run(true, rb, db, rejb);
  EXPECT_EQ(reja, 0u);
  EXPECT_EQ(rejb, 1u);
  EXPECT_EQ(da, db);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_TRUE(same_record(ra[i], rb[i])) << "report " << i << " diverged";
}

// ---------------------------------------------------------------------------
// Lowering at every replica load
// ---------------------------------------------------------------------------

// A mutation in every window: each barrier reloads the replicas, and with
// the jit on every reload lowers the chains, so the whole stream runs
// compiled and the reports match an interpreter-only run byte for byte.
TEST(JitEveryReload, MutationEveryWindowRunsEveryPacketCompiled) {
  const Trace t = port_trace(8, 8, 60);

  std::size_t mutation_barriers = 0;
  auto run = [&](bool jit, std::vector<ReportRecord>& reports) {
    telemetry::Registry::global().reset();
    Analyzer an;
    NewtonSwitch sw(1, 24, &an, 1 << 14);
    RuntimeOptions ro;
    ro.num_shards = 1;
    ro.jit = jit;
    ShardedRuntime rt(sw, ro, &an);
    ReportBuffer buf;
    rt.set_report_sink(&buf);
    for (int i = 0; i < 4; ++i)
      rt.install(port_query("base" + std::to_string(i),
                            static_cast<uint16_t>(20'000 + i)));
    rt.start();
    mutation_barriers = 0;
    WindowClock clock(100'000'000);
    for (const Packet& p : t.packets) {
      if (clock.rolls(p.ts_ns)) {
        // Entering window `epoch`: its barrier installs one tenant query
        // on a port the trace carries and withdraws the previous one.
        clock.open(p.ts_ns);
        const uint64_t epoch = clock.window();
        ++mutation_barriers;
        rt.install(port_query("storm" + std::to_string(epoch),
                              static_cast<uint16_t>(20'004 + epoch % 4)));
        if (epoch >= 2) rt.withdraw("storm" + std::to_string(epoch - 1));
      }
      rt.process(p);
    }
    rt.finish();
    EXPECT_EQ(rt.stats().rule_updates_applied, 2 * mutation_barriers - 1);
    reports = buf.records();
    return rt.stats();
  };

  std::vector<ReportRecord> compiled, interp;
  const RuntimeStats on = run(/*jit=*/true, compiled);
  const RuntimeStats off = run(/*jit=*/false, interp);
  ASSERT_EQ(mutation_barriers, 7u);

  // No window runs interpreted: every demuxed packet took the compiled
  // executors, and every mutation barrier lowered its reload once.
  uint64_t jit_packets = 0;
  for (const WorkerStats& w : on.workers) jit_packets += w.jit_packets;
  EXPECT_GT(on.packets_in, 0u);
  EXPECT_EQ(jit_packets, on.packets_in);
  EXPECT_EQ(on.jit_recompiles, 1 + mutation_barriers);
  EXPECT_EQ(off.jit_recompiles, 0u);

  ASSERT_GT(interp.size(), 0u);
  ASSERT_EQ(compiled.size(), interp.size());
  for (std::size_t i = 0; i < compiled.size(); ++i)
    EXPECT_TRUE(same_record(compiled[i], interp[i])) << "record " << i;
}

// ---------------------------------------------------------------------------
// Online compaction
// ---------------------------------------------------------------------------

TEST(Compaction, ConvertsFragmentationRejectionIntoAdmission) {
  Analyzer an;
  // 6 stages: exactly one chain's worth, so the big query cannot sidestep
  // the fragmented banks into untouched later stages.  3072-register banks
  // fill EXACTLY with twelve 256-wide rows — freeing every other query
  // leaves 1536 registers free with no hole wider than 256.
  NewtonSwitch sw(1, 6, &an, 3072);
  Controller ctl(sw);
  std::size_t rebinds = 0;
  ctl.set_rebind_hook(
      [&](const std::string&, const std::vector<uint16_t>&) { ++rebinds; });

  // Fill the banks with width-256 rows, then free every other query: lots
  // of registers free, but no hole wide enough for a 1024-wide row.
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    const std::string n = "frag" + std::to_string(i);
    const auto out = ctl.try_install(
        port_query(n, static_cast<uint16_t>(20'000 + i), 256));
    if (!out.admitted()) break;
    names.push_back(n);
  }
  ASSERT_GE(names.size(), 6u);
  for (std::size_t i = 0; i < names.size(); i += 2) ctl.remove(names[i]);

  const Query big = port_query("big", 45'000, 1024);
  ctl.set_auto_compact(false);
  const AdmitDecision raw = ctl.admit(big);
  if (raw.admitted()) GTEST_SKIP() << "banks not fragmented enough";
  ASSERT_EQ(raw.code, AdmitCode::kRegisterFragmented);
  EXPECT_TRUE(raw.would_fit_compacted);
  // Without compaction the install really is rejected...
  EXPECT_FALSE(ctl.try_install(big).admitted());

  // ...and with it, the same install lands, the gauges drain, and every
  // moved query's qids were rebound.
  ctl.set_auto_compact(true);
  const auto before = ctl.fragmentation();
  const auto out = ctl.try_install(big);
  EXPECT_TRUE(out.admitted()) << out.decision.to_string();
  EXPECT_TRUE(ctl.installed("big"));
  const auto after = ctl.fragmentation();
  EXPECT_LT(after.stranded_registers, before.stranded_registers);
  EXPECT_GE(rebinds, 1u);
}

TEST(Compaction, RebindKeepsReportAttributionCorrect) {
  // Compaction reassigns qids; reports must still land on the right query.
  Analyzer an;
  NewtonSwitch sw(1, 24, &an, 1 << 12);
  Controller ctl(sw);
  ctl.set_rebind_hook(
      [&](const std::string& q, const std::vector<uint16_t>& qids) {
        for (std::size_t bi = 0; bi < qids.size(); ++bi)
          an.register_qid_any(qids[bi], q, bi);
      });

  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    const std::string n = "q" + std::to_string(i);
    const auto out = ctl.try_install(
        port_query(n, static_cast<uint16_t>(20'000 + i), 256));
    if (!out.admitted()) break;
    const auto infos = ctl.list_queries();
    for (const auto& qi : infos)
      if (qi.name == n)
        for (std::size_t bi = 0; bi < qi.qids.size(); ++bi)
          an.register_qid_any(qi.qids[bi], n, bi);
    names.push_back(n);
  }
  ASSERT_GE(names.size(), 4u);
  for (std::size_t i = 0; i < names.size(); i += 2) ctl.remove(names[i]);
  const auto cs = ctl.compact();
  EXPECT_GT(cs.moved, 0u);

  // q1 survived and was likely moved; traffic on its port must still be
  // attributed to it.
  const Trace t = port_trace(8, 1, 64);
  for (const Packet& p : t.packets) sw.process(p);
  EXPECT_GT(an.reports_for("q1"), 0u);
}

// ---------------------------------------------------------------------------
// Replica loads copy the primary's rules into each worker's own layout
// ---------------------------------------------------------------------------

template <typename Config>
std::vector<std::pair<uint16_t, Config>> rules_of(
    const ConfigTable<Config>& t) {
  std::vector<std::pair<uint16_t, Config>> out;
  t.for_each([&](uint16_t qid, const Config& c) { out.emplace_back(qid, c); });
  return out;
}

// The qids newton_init dispatches each packet to, in dispatch order.
std::vector<std::vector<uint16_t>> dispatch(const InitModule& init,
                                            const std::vector<Packet>& pkts) {
  std::vector<std::vector<uint16_t>> out;
  for (const Packet& p : pkts) {
    std::vector<uint16_t> qids;
    for (const InitModule::Action* a :
         init.table().lookup_all(InitModule::key_of(p, true)))
      qids.insert(qids.end(), a->qids.begin(), a->qids.end());
    out.push_back(std::move(qids));
  }
  return out;
}

using SegmentKey = std::tuple<std::size_t, std::size_t, std::size_t, SaluOp,
                              uint16_t>;
std::vector<SegmentKey> segment_keys(
    const std::vector<NewtonSwitch::StateSegment>& segs) {
  std::vector<SegmentKey> out;
  for (const auto& s : segs)
    out.emplace_back(s.stage, s.offset, s.width, s.op, s.qid);
  return out;
}

// Every worker's K/H/S/R tables, rule by rule, its newton_init dispatch over
// `probe`, and its captured segments equal the primary's.
void expect_replicas_match(const ShardedRuntime& rt, NewtonSwitch& primary,
                           const std::vector<Packet>& probe,
                           const std::string& step) {
  const ModuleInstances& p = primary.modules();
  const auto want_init = dispatch(primary.init_table(), probe);
  for (std::size_t i = 0; i < rt.num_shards(); ++i) {
    SCOPED_TRACE(step + ", worker " + std::to_string(i));
    const ShardWorker& w = rt.worker_for_test(i);
    const ModuleInstances& r = w.modules();
    ASSERT_EQ(r.k.size(), p.k.size());
    for (std::size_t st = 0; st < p.k.size(); ++st) {
      EXPECT_EQ(rules_of(r.k[st]->table()), rules_of(p.k[st]->table()))
          << "K@s" << st;
      EXPECT_EQ(rules_of(r.h[st]->table()), rules_of(p.h[st]->table()))
          << "H@s" << st;
      EXPECT_EQ(rules_of(r.s[st]->table()), rules_of(p.s[st]->table()))
          << "S@s" << st;
      EXPECT_EQ(rules_of(r.r[st]->table()), rules_of(p.r[st]->table()))
          << "R@s" << st;
    }
    EXPECT_EQ(w.init_table().table().size(),
              primary.init_table().table().size());
    EXPECT_EQ(dispatch(w.init_table(), probe), want_init);
    EXPECT_EQ(segment_keys(w.segments()),
              segment_keys(primary.state_segments()));
  }
}

TEST(ReplicaLoad, EveryMutatingBarrierCopiesThePrimarysRules) {
  telemetry::Registry::global().reset();
  Analyzer an;
  // The Compaction.* geometry: 3072-register banks over 6 stages fill
  // exactly with twelve 256-wide rows, so freeing every other query leaves
  // no hole a 1024-wide row fits without a compaction move.
  NewtonSwitch sw(1, 6, &an, 3072);
  RuntimeOptions ro;
  ro.num_shards = 2;
  ro.record_snapshots = false;
  ShardedRuntime rt(sw, ro, &an);
  const Trace t = port_trace(12, 5, 48);
  std::vector<Packet> probe = port_trace(12, 1, 24).packets;
  for (uint16_t dport : {45'000, 50'000})
    probe.push_back(make_packet(ipv4(10, 0, 0, 1), ipv4(172, 16, 0, 1), 1234,
                                dport, 6, 0, 64, 0));
  const Query big = port_query("big", 45'000, 1024);

  // One window of traffic (which starts the runtime), then `mutate` queues
  // its mutations, and finish()'s barrier applies them and reloads.
  std::size_t window = 0;
  const auto run_window = [&](const std::string& step, auto mutate) {
    for (const Packet& pkt : t.packets)
      if (window_of(pkt.ts_ns, 100'000'000) == window) rt.process(pkt);
    ++window;
    mutate();
    rt.finish();
    expect_replicas_match(rt, sw, probe, step);
  };

  // Installs before the stream apply at once; start() loads them.
  for (int i = 0; i < 2; ++i)
    rt.install(port_query("frag" + std::to_string(i),
                          static_cast<uint16_t>(20'000 + i), 256));
  run_window("start", [] {});

  run_window("installs", [&] {
    for (int i = 2; i < 12; ++i)
      rt.install(port_query("frag" + std::to_string(i),
                            static_cast<uint16_t>(20'000 + i), 256));
  });
  ASSERT_GE(rt.controller().num_installed(), 6u);

  run_window("withdraw", [&] {
    for (int i = 0; i < 12; i += 2) rt.withdraw("frag" + std::to_string(i));
  });

  const uint64_t rejected = rt.stats().installs_rejected;
  run_window("inadmissible install",
             [&] { rt.install(doomed_query("doomed")); });
  EXPECT_EQ(rt.stats().installs_rejected, rejected + 1);

  // The big install is admissible only after a compaction move, which
  // reinstalls the moved queries under new handles (the rebind hook).
  rt.controller().set_auto_compact(false);
  ASSERT_EQ(rt.controller().admit(big).code, AdmitCode::kRegisterFragmented);
  rt.controller().set_auto_compact(true);
  std::map<std::string, uint64_t> handles;
  for (const auto& qi : rt.controller().list_queries())
    handles[qi.name] = qi.handle;
  run_window("compaction move", [&] { rt.install(big); });
  ASSERT_TRUE(rt.controller().installed("big"));
  std::size_t moved = 0;
  for (const auto& qi : rt.controller().list_queries())
    moved += handles.contains(qi.name) && handles[qi.name] != qi.handle;
  EXPECT_GT(moved, 0u);
}

// ---------------------------------------------------------------------------
// Tenant quotas
// ---------------------------------------------------------------------------

TEST(TenantQuota, ConcurrentQueryCapEnforced) {
  Analyzer an;
  NewtonSwitch sw(1, 24, &an, 1 << 14);
  Controller ctl(sw);
  TenantQuota quota;
  quota.max_queries = 2;
  ctl.set_tenant_quota("small", quota);

  EXPECT_TRUE(ctl.try_install(port_query("a", 20'001), {}, "small").admitted());
  EXPECT_TRUE(ctl.try_install(port_query("b", 20'002), {}, "small").admitted());
  const auto out = ctl.try_install(port_query("c", 20'003), {}, "small");
  ASSERT_FALSE(out.admitted());
  EXPECT_EQ(out.decision.code, AdmitCode::kTenantQueryQuota);
  // Another tenant is unaffected by the first one's quota.
  EXPECT_TRUE(ctl.try_install(port_query("d", 20'004), {}, "other").admitted());
  // Withdrawing frees quota headroom.
  ctl.remove("a");
  EXPECT_TRUE(ctl.try_install(port_query("c", 20'003), {}, "small").admitted());
}

// ---------------------------------------------------------------------------
// Flapping switch: FAILED_PERMANENT, clean rollback, no wedged controller
// ---------------------------------------------------------------------------

TEST(FailedPermanent, FlappingSwitchStormEndsTerminallyAndRollsBack) {
  telemetry::Registry::global().reset();
  Analyzer an;
  Network net(make_line(3), /*stages=*/6, &an, 1 << 14);
  NetworkController ctl(net, &an, 1 << 14);
  InstallFaultModel faults;
  ctl.set_install_faults(&faults);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.retry_budget = 5;
  ctl.set_retry_policy(policy);

  const int sick = net.topo().switches().front();
  faults.fail_always(sick);

  QueryParams p;
  p.sketch_width = 512;
  CompileOptions opts;
  opts.opt3 = false;

  // The storm: repeated deploy attempts against a permanently flapping
  // switch.  Every one must terminate in FAILED_PERMANENT within the retry
  // budget — bounded work, full rollback, never a wedge.
  for (int round = 0; round < 3; ++round) {
    try {
      ctl.deploy(make_q1(p), opts);
      FAIL() << "deploy against a dead switch succeeded";
    } catch (const PermanentInstallError& e) {
      EXPECT_EQ(e.failure().sw_node, sick);
      EXPECT_LE(e.failure().attempts, policy.max_attempts);
      EXPECT_LE(e.failure().retries_charged, policy.retry_budget);
      EXPECT_NE(std::string(e.what()).find("FAILED_PERMANENT"),
                std::string::npos);
    }
    EXPECT_EQ(ctl.deployment("q1_new_tcp"), nullptr);
    for (int s : net.topo().switches())
      EXPECT_EQ(net.sw(s).installed_rule_count(), 0u)
          << "switch " << s << " kept rules after FAILED_PERMANENT";
  }
  EXPECT_EQ(ctl.fault_stats().failed_permanent, 3u);
  EXPECT_GE(ctl.fault_stats().rollbacks, 3u);
  ASSERT_TRUE(ctl.last_install_failure().has_value());
  EXPECT_EQ(ctl.last_install_failure()->sw_node, sick);

  // Operator-visible counter.
  const auto snap = telemetry::Registry::global().snapshot();
  const auto* perm = snap.find("newton_net_installs_failed_permanent_total");
  ASSERT_NE(perm, nullptr);
  EXPECT_GE(perm->value, 3.0);

  // The fabric calms down: the same controller heals without a restart.
  faults.restore(sick);
  const auto& d = ctl.deploy(make_q1(p), opts);
  EXPECT_GT(d.handles.size(), 0u);
  EXPECT_FALSE(ctl.any_degraded());
}

}  // namespace
}  // namespace newton
