// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the compiler: hashing, sketch updates, table lookups, per-packet
// pipeline cost, and query compilation.
#include <benchmark/benchmark.h>

#include "core/compose.h"
#include "core/controller.h"
#include "core/cqe.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "dataplane/forwarding.h"
#include "packet/wire.h"
#include "sketch/bloom.h"
#include "sketch/count_min.h"
#include "sketch/hash.h"
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

}  // namespace
}  // namespace newton

BENCHMARK_MAIN();
