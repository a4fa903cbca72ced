// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the compiler: hashing, sketch updates, table lookups, newton_init
// dispatch, per-packet pipeline cost, the compiled executor, and query
// compilation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "compile/executor.h"
#include "core/compose.h"
#include "core/controller.h"
#include "core/cqe.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "dataplane/forwarding.h"
#include "detectors/detector.h"
#include "packet/wire.h"
#include "sketch/bloom.h"
#include "sketch/count_min.h"
#include "sketch/hash.h"
#include "trace/attacks.h"
#include "trace/trace_gen.h"

namespace newton {
namespace {

void BM_HashCrc32(benchmark::State& state) {
  uint32_t v = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(v = hash_u32(HashAlgo::Crc32, 1, v + 1));
}
BENCHMARK(BM_HashCrc32);

void BM_HashMix64(benchmark::State& state) {
  uint32_t v = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(v = hash_u32(HashAlgo::Mix64, 1, v + 1));
}
BENCHMARK(BM_HashMix64);

// Interquartile range of the repetitions (reported next to the median).
double iqr(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const auto at = [&](double q) {
    const double x = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(x);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (x - static_cast<double>(lo));
  };
  return s.empty() ? 0.0 : at(0.75) - at(0.25);
}

// The compiled executor's per-key hash (hash_key) against the chained
// hash_words it equals, on CRC32C (every installed H op's algorithm), over
// a burst of 64 nine-word key rows.  Arg 0 is the number of cared words:
// the first that many words of each row are random, the rest zero, as K
// leaves them.  Arg 1 = 0 times hash_key, 1 times hash_words.  ns per key.
void BM_HashKey(benchmark::State& state) {
  constexpr std::size_t kBurst = 64;
  const auto cared_n = static_cast<std::size_t>(state.range(0));
  const bool chained = state.range(1) == 1;
  const uint32_t cared = (1u << cared_n) - 1;
  constexpr uint32_t kSeed = 0x1234u;
  const uint32_t base = key_hash_base(HashAlgo::Crc32c, kSeed);
  std::mt19937 rng(3);
  std::vector<uint32_t> keys(kBurst * kKeyWords, 0);
  for (std::size_t i = 0; i < kBurst; ++i)
    for (std::size_t j = 0; j < cared_n; ++j) keys[i * kKeyWords + j] = rng();
  std::vector<uint32_t> out(kBurst);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      const uint32_t* key = keys.data() + i * kKeyWords;
      out[i] = chained ? hash_words(HashAlgo::Crc32c, kSeed,
                                    std::span<const uint32_t>(key, kKeyWords))
                       : hash_key(HashAlgo::Crc32c, kSeed, base, cared, key);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const std::chrono::duration<double, std::nano> ns =
      std::chrono::steady_clock::now() - t0;
  const auto n = static_cast<double>(state.iterations()) * kBurst;
  state.SetItemsProcessed(static_cast<int64_t>(n));
  state.counters["ns_per_key"] = ns.count() / n;
}
BENCHMARK(BM_HashKey)
    ->ArgNames({"cared", "chained"})
    ->ArgsProduct({{1, 2, 3, 9}, {0, 1}})
    ->ComputeStatistics("iqr", iqr);

void BM_CountMinUpdate(benchmark::State& state) {
  CountMin cm(static_cast<std::size_t>(state.range(0)), 4096);
  uint32_t k = 0;
  for (auto _ : state) benchmark::DoNotOptimize(cm.update(++k % 1024));
}
BENCHMARK(BM_CountMinUpdate)->Arg(2)->Arg(3)->Arg(6);

void BM_BloomInsert(benchmark::State& state) {
  BloomFilter bf(3, 1 << 15);
  uint32_t k = 0;
  for (auto _ : state) benchmark::DoNotOptimize(bf.insert(++k % 4096));
}
BENCHMARK(BM_BloomInsert);

void BM_TernaryLookup(benchmark::State& state) {
  TernaryTable<int> t(256);
  for (int i = 0; i < state.range(0); ++i)
    t.insert({MatchWord::exact(static_cast<uint32_t>(i)),
              MatchWord::wildcard()},
             i, i);
  uint32_t k = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        t.lookup({++k % static_cast<uint32_t>(state.range(0)), 7}));
}
BENCHMARK(BM_TernaryLookup)->Arg(8)->Arg(64)->Arg(256);

void BM_SwitchProcessPacket(benchmark::State& state) {
  NewtonSwitch sw(1, 12, nullptr);
  sw.install(compile_query(make_q1()));
  const Packet p = make_packet(1, 2, 3, 4, kProtoTcp, kTcpSyn);
  for (auto _ : state) benchmark::DoNotOptimize(sw.process(p));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchProcessPacket);

void BM_CompileQuery(benchmark::State& state) {
  const Query q =
      all_queries()[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) benchmark::DoNotOptimize(compile_query(q));
}
BENCHMARK(BM_CompileQuery)->Arg(0)->Arg(3)->Arg(5)->Arg(7);

void BM_QueryInstallRemove(benchmark::State& state) {
  NewtonSwitch sw(1, 12, nullptr);
  const CompiledQuery cq = compile_query(make_q1());
  for (auto _ : state) {
    const auto res = sw.install(cq);
    sw.remove(res.handle);
  }
}
BENCHMARK(BM_QueryInstallRemove);

void BM_WireDeparseParse(benchmark::State& state) {
  const Packet p = make_packet(ipv4(10, 1, 2, 3), ipv4(172, 16, 9, 9), 1234,
                               443, kProtoTcp, kTcpSyn, 200);
  for (auto _ : state) {
    const auto frame = deparse_frame(p);
    benchmark::DoNotOptimize(parse_frame(frame));
  }
}
BENCHMARK(BM_WireDeparseParse);

void BM_LpmLookup(benchmark::State& state) {
  LpmTable t;
  for (int i = 0; i < state.range(0); ++i)
    t.insert((10u << 24) | (static_cast<uint32_t>(i) << 8), 24,
             static_cast<uint32_t>(i % 64));
  t.insert(0, 0, 63);
  uint32_t ip = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(t.lookup((10u << 24) | (++ip % 60'000)));
}
BENCHMARK(BM_LpmLookup)->Arg(1'000)->Arg(10'000)->Arg(60'000);

void BM_SliceQuery(benchmark::State& state) {
  CompileOptions opts;
  opts.opt3 = false;
  const CompiledQuery cq = compile_query(make_q1(), opts);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        slice_query(cq, static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_SliceQuery)->Arg(3)->Arg(6);

void BM_SwitchProcessConcurrentQueries(benchmark::State& state) {
  NewtonSwitch sw(1, 12, nullptr, 1 << 18);
  Controller ctl(sw);
  for (int i = 0; i < state.range(0); ++i) {
    Query q = QueryBuilder(std::string("t").append(std::to_string(i)))
                  .sketch(2, 64)
                  .filter(Predicate{}
                              .where(Field::Proto, Cmp::Eq, kProtoTcp)
                              .where(Field::DstPort, Cmp::Eq,
                                     static_cast<uint32_t>(1000 + i)))
                  .map({Field::DstIp})
                  .reduce({Field::DstIp}, Agg::Sum)
                  .when(Cmp::Ge, 100)
                  .build();
    ctl.install(q);
  }
  const Packet p = make_packet(1, 2, 3, 1000, kProtoTcp, kTcpAck);
  for (auto _ : state) benchmark::DoNotOptimize(sw.process(p));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchProcessConcurrentQueries)->Arg(1)->Arg(16)->Arg(64);

// The compiled executor alone (src/compile/): CompiledPipeline::execute_run
// over a fixed input of post-newton_init PHVs, single thread, cut into
// runs as the worker cuts them (compile::run_length).  Arg 0 picks the
// query set: 0 = q1/q3/q5 over the CAIDA-like trace with a SYN and a UDP
// flood, 1 = the six detectors over the labeled attack trace.  Arg 1 is
// the burst: 64 as in the runtime, or 1, where every packet is its own run
// and the per-run cost (load phase, plan lookup or merge) dominates.  The
// input keeps the first 8192 packets that activate a query.
void BM_CompiledRun(benchmark::State& state) {
  const bool detectors = state.range(0) == 1;
  const auto burst = static_cast<std::size_t>(state.range(1));
  NewtonSwitch sw(1, detectors ? 64 : 24, nullptr);
  Controller ctl(sw);
  Trace t;
  if (detectors) {
    for (const auto& d : detectors::detector_library()) ctl.install(d.query);
    t = make_labeled_attack_trace(1).trace;
  } else {
    QueryParams p;
    ctl.install(make_q1(p));
    ctl.install(make_q3(p));
    ctl.install(make_q5(p));
    TraceProfile prof = caida_like(1);
    prof.num_flows = 2000;
    t = generate_trace(prof);
    std::mt19937 rng(8);
    inject_syn_flood(t, ipv4(172, 16, 7, 7), 400, 1, 150'000'000, rng);
    inject_udp_flood(t, ipv4(172, 16, 9, 9), 300, 2, 450'000'000, rng);
    t.sort_by_time();
  }
  Pipeline pipe = sw.pipeline().clone();
  const auto init =
      std::dynamic_pointer_cast<InitModule>(sw.init_table().clone());
  compile::CompiledPipeline exec;
  exec.build(pipe, burst, {});
  std::vector<Phv> phvs;
  for (const Packet& pk : t.packets) {
    Phv phv;
    phv.pkt = pk;
    init->execute(phv);
    if (!phv.active_list.empty()) phvs.push_back(phv);
    if (phvs.size() == 8192) break;
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (std::size_t base = 0; base < phvs.size(); base += burst) {
      const std::size_t m = std::min(burst, phvs.size() - base);
      for (std::size_t i = 0; i < m;) {
        Phv* run = phvs.data() + base + i;
        const std::size_t len = compile::run_length(run, m - i);
        benchmark::DoNotOptimize(exec.execute_run(run, len));
        i += len;
      }
    }
  }
  const std::chrono::duration<double, std::nano> ns =
      std::chrono::steady_clock::now() - t0;
  const auto pkts = static_cast<double>(state.iterations()) *
                    static_cast<double>(phvs.size());
  state.SetItemsProcessed(static_cast<int64_t>(pkts));
  state.counters["ns_per_pkt"] = ns.count() / pkts;
}
BENCHMARK(BM_CompiledRun)
    ->ArgNames({"detectors", "burst"})
    ->ArgsProduct({{0, 1}, {64, 1}})
    ->ComputeStatistics("iqr", iqr)
    ->Unit(benchmark::kMicrosecond);

// newton_init alone: InitModule::execute_burst over bursts of 64 fresh
// PHVs, timed around the call only, ns per packet.  Arg 0 picks the rule
// set and its traffic: 0 = q1/q3/q5 over the CAIDA-like trace (three
// one-rule mask patterns), 1 = the six detectors over the labeled attack
// trace (a 3-rule and a 6-rule pattern), 2 = 100 dport tenants as in
// perfbench's tenant-churn (one 100-rule pattern, so a hashed tuple) over
// tenant traffic, 60% of it to a tenant's port.  8192 packets each.
void BM_InitDispatch(benchmark::State& state) {
  constexpr std::size_t kBurst = 64, kPackets = 8192;
  const int64_t set = state.range(0);
  NewtonSwitch sw(1, 64, nullptr);
  Controller ctl(sw);
  std::vector<Packet> pkts;
  if (set == 0) {
    QueryParams p;
    ctl.install(make_q1(p));
    ctl.install(make_q3(p));
    ctl.install(make_q5(p));
    TraceProfile prof = caida_like(1);
    prof.num_flows = 2000;
    Trace t = generate_trace(prof);
    std::mt19937 rng(8);
    inject_syn_flood(t, ipv4(172, 16, 7, 7), 400, 1, 150'000'000, rng);
    t.sort_by_time();
    pkts = std::move(t.packets);
  } else if (set == 1) {
    for (const auto& d : detectors::detector_library()) ctl.install(d.query);
    pkts = make_labeled_attack_trace(1).trace.packets;
  } else {
    for (uint32_t i = 0; i < 100; ++i)
      ctl.install(QueryBuilder(std::string("tenant").append(std::to_string(i)))
                      .sketch(2, 256)
                      .filter(Predicate{}.where(Field::DstPort, Cmp::Eq,
                                                20'000 + i))
                      .map({Field::SrcIp})
                      .reduce({Field::SrcIp}, Agg::Sum)
                      .when(Cmp::Ge, 6)
                      .build());
    std::mt19937 rng(5);
    for (uint32_t i = 0; i < kPackets; ++i) {
      const uint32_t c = rng() % 10;
      const uint32_t dport = c < 6 ? 20'000 + rng() % 100 : c < 8 ? 443 : 80;
      pkts.push_back(make_packet(ipv4(10, 1, 0, rng() % 256),
                                 ipv4(172, 16, 0, rng() % 256),
                                 1024 + rng() % 60'000, dport, kProtoTcp,
                                 kTcpAck, 512, i * 1000ull));
    }
  }
  pkts.resize(std::min(pkts.size(), kPackets));
  const auto init =
      std::dynamic_pointer_cast<InitModule>(sw.init_table().clone());
  std::vector<Phv> phvs(kBurst);
  std::chrono::duration<double, std::nano> ns{0};
  uint64_t activated = 0;
  for (auto _ : state) {
    for (std::size_t base = 0; base < pkts.size(); base += kBurst) {
      const std::size_t m = std::min(kBurst, pkts.size() - base);
      for (std::size_t i = 0; i < m; ++i) {
        phvs[i].reset();
        phvs[i].pkt = pkts[base + i];
      }
      const auto t0 = std::chrono::steady_clock::now();
      init->execute_burst(phvs.data(), m);
      ns += std::chrono::steady_clock::now() - t0;
      for (std::size_t i = 0; i < m; ++i)
        activated += phvs[i].active_list.size();
    }
  }
  benchmark::DoNotOptimize(activated);
  const auto n = static_cast<double>(state.iterations()) *
                 static_cast<double>(pkts.size());
  state.SetItemsProcessed(static_cast<int64_t>(n));
  state.counters["ns_per_pkt"] = ns.count() / n;
  state.counters["rules"] = static_cast<double>(init->table().size());
}
BENCHMARK(BM_InitDispatch)
    ->ArgName("set")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ComputeStatistics("iqr", iqr)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace newton

BENCHMARK_MAIN();
