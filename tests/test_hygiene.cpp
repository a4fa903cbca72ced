// Runtime hygiene: state isolation between queries across install/remove
// cycles, rule/qid/register recycling, multi-query dispatch, capacity
// behaviour under churn.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "runtime/sharded_runtime.h"
#include "trace/attacks.h"

namespace newton {
namespace {

TEST(RegisterHygiene, ClearRange) {
  RegisterArray r(16);
  for (std::size_t i = 0; i < 16; ++i) r.execute(SaluOp::Write, i, 7);
  r.clear_range(4, 8);
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(r.read(i), (i >= 4 && i < 12) ? 0u : 7u);
  r.clear_range(14, 100);  // clamped at the end
  EXPECT_EQ(r.read(15), 0u);
  r.clear_range(99, 5);  // out of range: no-op
}

TEST(RegisterHygiene, ReinstalledQuerySeesNoStaleState) {
  // Install Q1, feed it 30 SYNs (threshold 40: silent), remove, reinstall,
  // feed 20 more in the SAME window.  Stale counters would make 30+20 cross
  // the threshold; a swept reinstall must stay silent.
  QueryParams p;
  p.q1_syn_th = 40;
  p.sketch_width = 64;  // small bank so ranges certainly recycle
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink, 1 << 10);
  Controller ctl(sw);
  ctl.install(make_q1(p));
  for (int i = 0; i < 30; ++i)
    sw.process(make_packet(100 + i, 200, 1, 80, kProtoTcp, kTcpSyn, 64,
                           1000ull * i));
  ctl.remove("q1_new_tcp");
  ctl.install(make_q1(p));
  for (int i = 0; i < 20; ++i)
    sw.process(make_packet(300 + i, 200, 1, 80, kProtoTcp, kTcpSyn, 64,
                           50'000 + 1000ull * i));
  EXPECT_EQ(sink.size(), 0u);
  // And a fresh 40 in one window still fires.
  for (int i = 0; i < 40; ++i)
    sw.process(make_packet(500 + i, 201, 1, 80, kProtoTcp, kTcpSyn, 64,
                           100'000 + 1000ull * i));
  EXPECT_EQ(sink.size(), 1u);
}

TEST(MultiQueryDispatch, OverlappingQueriesBothFire) {
  // Q1 (SYN counting) and a bare SYN exporter watch the same traffic; a
  // packet must execute both (the init cross-product).
  ReportBuffer sink;
  NewtonSwitch sw(1, 24, &sink);
  Controller ctl(sw);
  QueryParams p;
  p.q1_syn_th = 3;
  ctl.install(make_q1(p));
  const Query exporter =
      QueryBuilder("syn_export")
          .filter(Predicate{}
                      .where(Field::Proto, Cmp::Eq, kProtoTcp)
                      .where(Field::TcpFlags, Cmp::Eq, kTcpSyn))
          .map({Field::SrcIp, Field::DstIp})
          .build();
  ctl.install(exporter);

  for (int i = 0; i < 3; ++i)
    sw.process(make_packet(10 + i, 99, 1, 80, kProtoTcp, kTcpSyn, 64,
                           1000ull * i));
  // exporter reports every SYN (3) + Q1 reports the crossing (1).
  EXPECT_EQ(sink.size(), 4u);
}

TEST(MultiQueryDispatch, LookupAllReturnsEveryMatch) {
  TernaryTable<int> t(8);
  t.insert({MatchWord::wildcard()}, 0, 1);
  t.insert({MatchWord::exact(7)}, 5, 2);
  t.insert({MatchWord::exact(8)}, 5, 3);
  const auto all = t.lookup_all({7});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(*t.lookup({7}), 2);  // single-result lookup honors priority
}

TEST(Churn, RepeatedInstallRemoveIsStable) {
  NewtonSwitch sw(1, 24, nullptr, 1 << 14);
  Controller ctl(sw);
  QueryParams p;
  p.sketch_width = 512;
  for (int round = 0; round < 50; ++round) {
    for (const Query& q : {make_q1(p), make_q3(p), make_q5(p)}) ctl.install(q);
    EXPECT_EQ(ctl.num_installed(), 3u);
    for (const char* n :
         {"q1_new_tcp", "q3_super_spreader", "q5_udp_ddos"})
      ctl.remove(n);
  }
  EXPECT_EQ(sw.installed_rule_count(), 0u);
  EXPECT_EQ(sw.slots_used(), 0u);
}

TEST(Capacity, ModuleRuleCapacityBindsConcurrency) {
  // Each module table holds kRulesPerModule rules; pushing past it throws
  // and rolls back cleanly.
  NewtonSwitch sw(1, 12, nullptr, 1 << 20);
  Controller ctl(sw);
  std::size_t installed = 0;
  try {
    for (std::size_t i = 0; i < kRulesPerModule + 10; ++i) {
      Query q = QueryBuilder(std::string("m").append(std::to_string(i)))
                    .filter(Predicate{}.where(Field::DstPort, Cmp::Eq,
                                              static_cast<uint32_t>(i)))
                    .map({Field::DstIp})
                    .sketch(1, 8)
                    .build();
      ctl.install(q);
      ++installed;
    }
    FAIL() << "expected capacity exhaustion";
  } catch (const std::runtime_error&) {
    EXPECT_GE(installed, 200u);
  }
  // The failed install must not leak partial rules: removing everything
  // returns the switch to empty.
  for (std::size_t i = 0; i < installed; ++i)
    ctl.remove("m" + std::to_string(i));
  EXPECT_EQ(sw.installed_rule_count(), 0u);
}

TEST(Capacity, RollbackFreesRegistersOnFailedInstall) {
  // Two structurally identical queries over DISJOINT traffic compile to the
  // same stages (P-Newton); the bank fits only one 4096-register sketch per
  // stage, so the second install fails — and must roll back cleanly.
  auto counter = [](const char* name, uint32_t proto, std::size_t width) {
    return QueryBuilder(name)
        .sketch(2, width)
        .filter(Predicate{}.where(Field::Proto, Cmp::Eq, proto))
        .map({Field::DstIp})
        .reduce({Field::DstIp}, Agg::Sum)
        .when(Cmp::Ge, 1000)
        .build();
  };
  NewtonSwitch sw(1, 12, nullptr, /*bank=*/4096 + 64);
  Controller ctl(sw);
  ctl.install(counter("tcp_counter", kProtoTcp, 4096));
  EXPECT_THROW(ctl.install(counter("udp_counter", kProtoUdp, 4096)),
               std::runtime_error);
  // The failed install must have freed its partial allocations/qids: a
  // query that fits still installs on the very same stages.
  EXPECT_NO_THROW(ctl.install(counter("icmp_counter", kProtoIcmp, 16)));
}

TEST(Epoch, WindowBoundaryResetsAllBanks) {
  QueryParams p;
  p.q1_syn_th = 10;
  p.window_ms = 1;  // the switch runs the installed query's 1 ms windows
  ReportBuffer sink;
  NewtonSwitch sw(1, 12, &sink);
  sw.install(compile_query(make_q1(p)));
  // 9 SYNs at the end of one window + 9 at the start of the next: silent.
  for (int i = 0; i < 9; ++i)
    sw.process(make_packet(i, 5, 1, 80, kProtoTcp, kTcpSyn, 64,
                           900'000 + 1000ull * i));
  for (int i = 0; i < 9; ++i)
    sw.process(make_packet(50 + i, 5, 1, 80, kProtoTcp, kTcpSyn, 64,
                           1'050'000 + 1000ull * i));
  EXPECT_EQ(sink.size(), 0u);
}

// ---------------------------------------------------------------------------
// Bank hygiene: a window roll zeroes only the allocated segments, which is
// exact only while every register outside them is zero.  These drive random
// install / withdraw / traffic / roll sequences and check that invariant
// after every step, plus an all-zero bank set right after every roll.
// ---------------------------------------------------------------------------

constexpr uint64_t kHygieneWindowNs = 100'000'000;

std::size_t nonzero_registers(const RegisterArray& bank) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < bank.size(); ++i) n += bank.read(i) != 0;
  return n;
}

std::size_t nonzero_registers(const NewtonSwitch& sw) {
  std::size_t n = 0;
  for (std::size_t st = 0; st < sw.num_stages(); ++st)
    n += nonzero_registers(sw.modules().s[st]->registers());
  return n;
}

std::string hygiene_name(int port_index) {
  return std::string("hq").append(std::to_string(port_index));
}

// A counting query on its own dst port; `width` varies so withdrawn ranges
// get reused by differently sized allocations.
Query hygiene_query(int port_index, std::size_t width, std::size_t depth) {
  QueryBuilder b(hygiene_name(port_index));
  b.sketch(depth, width);
  b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq,
                             static_cast<uint32_t>(20'000 + port_index)))
      .map({Field::SrcIp})
      .reduce({Field::SrcIp}, Agg::Sum)
      .when(Cmp::Ge, 1'000'000);
  Query q = b.build();
  q.window_ns = kHygieneWindowNs;
  q.row_partitions = 1;
  return q;
}

// Traffic on the pool's ports (installed or not) inside window `w`.
std::vector<Packet> hygiene_traffic(std::mt19937& rng, int ports, uint64_t w,
                                    std::size_t n) {
  std::vector<Packet> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(make_packet(
        ipv4(10, 0, static_cast<uint8_t>(rng() % 4),
             static_cast<uint8_t>(rng() % 256)),
        ipv4(172, 16, 0, 1), 1234,
        static_cast<uint32_t>(20'000 + rng() % ports), kProtoTcp, 0, 64,
        w * kHygieneWindowNs + 1'000 * (i + 1)));
  return out;
}

// A packet no query watches, at the start of window `w`: it rolls the
// window and writes nothing, so the banks right after it are the banks
// right after the roll.
Packet roll_packet(uint64_t w) {
  return make_packet(ipv4(10, 9, 9, 9), ipv4(172, 16, 0, 2), 53, 9, kProtoUdp,
                     0, 64, w * kHygieneWindowNs);
}

enum class Step { Install, Withdraw, Traffic, Roll };

Step random_step(std::mt19937& rng) {
  return static_cast<Step>(rng() % 4);
}

TEST(BankHygiene, SwitchKeepsUnallocatedRegistersZero) {
  constexpr int kPorts = 8;
  std::mt19937 rng(17);
  NewtonSwitch sw(1, 12, nullptr, /*bank=*/1 << 11);
  Controller ctl(sw);
  std::set<int> installed;
  uint64_t w = 0;
  std::size_t rolls = 0, withdrawals = 0, live = 0;
  for (int step = 0; step < 400; ++step) {
    const int port = static_cast<int>(rng() % kPorts);
    switch (random_step(rng)) {
      case Step::Install:
        if (installed.contains(port)) break;
        try {
          ctl.install(hygiene_query(port, 64u << (rng() % 4), 1 + rng() % 2));
          installed.insert(port);
        } catch (const std::exception&) {
          // Bank or table full: a rejected install must leave no residue
          // either, which the check below covers.
        }
        break;
      case Step::Withdraw:
        if (!installed.contains(port)) break;
        ctl.remove(hygiene_name(port));
        installed.erase(port);
        ++withdrawals;
        break;
      case Step::Traffic:
        for (const Packet& p : hygiene_traffic(rng, kPorts, w, 40))
          sw.process(p);
        break;
      case Step::Roll:
        live += nonzero_registers(sw);
        sw.process(roll_packet(++w));
        ++rolls;
        ASSERT_EQ(nonzero_registers(sw), 0u)
            << "after the roll at step " << step;
        break;
    }
    ASSERT_EQ(sw.stray_registers(), 0u) << "step " << step;
  }
  EXPECT_GT(rolls, 50u);
  EXPECT_GT(withdrawals, 20u);
  EXPECT_GT(live, 0u);
}

TEST(BankHygiene, ShardedRuntimePrimaryAndReplicas) {
  constexpr int kPorts = 6;
  std::mt19937 rng(23);
  NewtonSwitch primary(1, 12, nullptr, /*bank=*/1 << 13);
  RuntimeOptions opts;
  opts.num_shards = 2;
  ShardedRuntime rt(primary, opts);
  std::set<int> installed;
  uint64_t w = 0;
  std::size_t live = 0;
  // Every step is one window with one install or withdraw, queued while
  // the runtime runs and applied (with a replica reload) at the barrier
  // that closes the window.  Every third step finishes the run instead:
  // the workers are then quiesced right after a barrier, so their replicas
  // must read all-zero; the next packet restarts the runtime.
  for (int step = 0; step < 60; ++step) {
    const int port = static_cast<int>(rng() % kPorts);
    if (installed.contains(port)) {
      rt.withdraw(hygiene_name(port));
      installed.erase(port);
    } else {
      rt.install(hygiene_query(port, 64u << (rng() % 4), 1 + rng() % 2));
      installed.insert(port);
    }
    for (const Packet& p : hygiene_traffic(rng, kPorts, ++w, 200))
      rt.process(p);
    if (step % 3 != 2) continue;
    rt.finish();
    ASSERT_EQ(primary.stray_registers(), 0u) << "primary, step " << step;
    live += nonzero_registers(primary);  // the last window's merged state
    for (std::size_t i = 0; i < rt.num_shards(); ++i) {
      const ShardWorker& wk = rt.worker_for_test(i);
      ASSERT_EQ(wk.segments().size(), primary.state_segments().size());
      for (std::size_t st = 0; st < primary.num_stages(); ++st)
        ASSERT_EQ(nonzero_registers(wk.bank(st)), 0u)
            << "replica " << i << " stage " << st << ", step " << step;
    }
  }
  EXPECT_GT(rt.stats().rule_updates_applied, 30u);
  EXPECT_EQ(rt.stats().installs_rejected, 0u);
  EXPECT_GT(live, 0u);
}

TEST(BankHygiene, NetworkSwitchesUnderDeployChurn) {
  constexpr int kPorts = 6;
  std::mt19937 rng(29);
  Analyzer an;
  Network net(make_line(3), /*stages=*/5, &an, /*bank=*/1 << 11);
  NetworkController ctl(net, &an, 1 << 11);
  const auto hosts = net.topo().hosts();
  const std::vector<int> sws = net.topo().switches();
  std::set<int> deployed;
  uint64_t w = 0;
  std::size_t rolls = 0, withdrawals = 0, live = 0;
  for (int step = 0; step < 300; ++step) {
    const int port = static_cast<int>(rng() % kPorts);
    switch (random_step(rng)) {
      case Step::Install:
        if (deployed.contains(port)) break;
        try {
          ctl.deploy(hygiene_query(port, 64u << (rng() % 4), 1 + rng() % 2));
          deployed.insert(port);
        } catch (const std::exception&) {
        }
        break;
      case Step::Withdraw:
        if (!deployed.contains(port)) break;
        ctl.withdraw(hygiene_name(port));
        deployed.erase(port);
        ++withdrawals;
        break;
      case Step::Traffic:
        for (const Packet& p : hygiene_traffic(rng, kPorts, w, 40))
          net.send(p, hosts[0], hosts[1]);
        break;
      case Step::Roll:
        for (int s : sws) live += nonzero_registers(net.sw(s));
        net.send(roll_packet(++w), hosts[0], hosts[1]);
        ++rolls;
        for (int s : sws)
          ASSERT_EQ(nonzero_registers(net.sw(s)), 0u)
              << "switch " << s << " after the roll at step " << step;
        break;
    }
    for (int s : sws)
      ASSERT_EQ(net.sw(s).stray_registers(), 0u)
          << "switch " << s << ", step " << step;
  }
  EXPECT_GT(rolls, 40u);
  EXPECT_GT(withdrawals, 15u);
  EXPECT_GT(live, 0u);
}

TEST(BankHygiene, UnguardedStatefulRuleIsRejected) {
  NewtonSwitch sw(1, 12, nullptr, /*bank=*/1 << 11);
  const CompiledQuery good = compile_query(hygiene_query(0, 128, 1));
  const std::size_t free_qids = sw.free_qids();
  const auto mutate_s = [&](auto&& edit) {
    CompiledQuery cq = good;
    for (auto& b : cq.branches)
      for (ModuleSpec& m : b.modules)
        if (m.type == ModuleType::S && !m.s.bypass && m.rule_needed) edit(m);
    return cq;
  };
  // No allocation: the index would address the bank unguarded.
  EXPECT_THROW(sw.install(mutate_s([](ModuleSpec& m) { m.alloc_width = 0; })),
               std::invalid_argument);
  // A guard wider than the allocation would write past its segment.
  EXPECT_THROW(sw.install(mutate_s([](ModuleSpec& m) {
                 m.s.guard_lo = 0;
                 m.s.guard_hi = 0xffffffffu;
               })),
               std::invalid_argument);
  EXPECT_EQ(sw.num_installs(), 0u);
  EXPECT_EQ(sw.free_qids(), free_qids);
  EXPECT_TRUE(sw.state_segments().empty());
  EXPECT_NO_THROW(sw.install(good));
}

}  // namespace
}  // namespace newton
