// Zero-allocation guarantee of the batched packet hot path
// (docs/runtime.md "Hot path"): a global operator new/delete interposer
// counts every heap allocation, and the steady-state worker loop — PHV
// reset/refill, newton_init dispatch (scanned and hashed tuples alike),
// stage-major pipeline bursts, ring bulk transfer, report emission into a
// pre-reserved sink — must perform none at all across 10k packets, on the
// interpreter and on the compiled executor (whose plan table fills inside
// the measured region).
//
// The fleet send path (docs/fleet.md "Hops") is held to the same contract:
// once the route tables, slice counters and SP-header buffers exist, a
// Network::send of a CQE-sliced packet allocates nothing at any hop.
//
// The interposer is process-wide, so this test lives in its own binary:
// gtest machinery and the setup phase allocate freely, the measured region
// is bracketed by counter snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include <cstdio>
#include <filesystem>

#include "compile/executor.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "ingest/pcap_source.h"
#include "ingest/replay_source.h"
#include "ingest/trace_source.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/spsc_ring.h"
#include "runtime/worker.h"
#include "trace/pcap.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) == 0)
    return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace newton {
namespace {

// ReportBuffer grows its vector; the hot-path contract only asks the sink
// not to allocate, so the test sink writes into pre-reserved storage.
struct PrereservedSink : ReportSink {
  std::vector<ReportRecord> records;
  void report(const ReportRecord& r) override { records.push_back(r); }
};

constexpr std::size_t kBurst = 64;
constexpr std::size_t kPackets = 10'000;

constexpr std::size_t kTenants = 100;

// Two installed queries beside 100 dport tenants (tenant-churn's shape:
// dport filter, keyed on sip), and a pre-built packet mix: SYNs (both
// queries fire, reports guaranteed), other TCP, tenant traffic, and UDP
// that matches nothing.  The tenants' newton_init rules share one mask
// pattern, so every dispatch probes a hashed tuple.
struct QueryMix {
  NewtonSwitch sw{1, 24, nullptr};
  Controller ctl{sw};
  std::vector<Packet> pkts;

  QueryMix() : pkts(kPackets) {
    QueryParams params;
    params.sketch_width = 8192;
    ctl.install(make_q1(params));  // stateful: K/H/S/R all on the path
    ctl.install(QueryBuilder("syn_export")  // stateless: reports every SYN
                    .filter(Predicate{}
                                .where(Field::Proto, Cmp::Eq, kProtoTcp)
                                .where(Field::TcpFlags, Cmp::Eq, kTcpSyn))
                    .map({Field::SrcIp, Field::DstIp})
                    .build());
    for (std::size_t t = 0; t < kTenants; ++t)
      ctl.install(QueryBuilder(std::string("tenant").append(std::to_string(t)))
                      .sketch(2, 64)
                      .filter(Predicate{}.where(Field::DstPort, Cmp::Eq,
                                                tenant_port(t)))
                      .map({Field::SrcIp})
                      .reduce({Field::SrcIp}, Agg::Sum)
                      .when(Cmp::Ge, 4)
                      .build());
    for (std::size_t i = 0; i < kPackets; ++i) {
      const uint32_t u = static_cast<uint32_t>(i);
      switch (i % 4) {
        case 0:
          pkts[i] = make_packet(u % 97, 7, 1000 + u % 53, 80, kProtoTcp,
                                kTcpSyn, 64, i * 1000);
          break;
        case 1:
          pkts[i] = make_packet(u % 97, 7, 1000 + u % 53, 80, kProtoTcp,
                                kTcpAck, 512, i * 1000);
          break;
        case 2:
          pkts[i] = make_packet(u % 61, 8, 1000 + u % 53,
                                tenant_port(u % kTenants), kProtoTcp, kTcpAck,
                                256, i * 1000);
          break;
        default:
          pkts[i] =
              make_packet(u % 89, 9, 53, 53, kProtoUdp, 0, 128, i * 1000);
      }
    }
  }

  static uint32_t tenant_port(std::size_t t) {
    return 20'000 + static_cast<uint32_t>(t);
  }
};

// A replica of `sw` reporting into `sink`: a deep clone of its pipeline
// and newton_init table.  ShardWorker instead builds its own layout once
// and copies the rules into it, but the tables, banks and packet loop this
// test drives are the same.
struct Replica {
  Pipeline pipe;
  std::shared_ptr<InitModule> init;

  Replica(const NewtonSwitch& sw, ReportSink& sink)
      : pipe(sw.pipeline().clone()),
        init(std::dynamic_pointer_cast<InitModule>(sw.init_table().clone())) {
    for (std::size_t i = 0; i < pipe.num_stages(); ++i)
      for (const auto& t : pipe.stage(i).tables())
        if (auto* r = dynamic_cast<RModule*>(t.get())) r->set_sink(&sink);
  }

  uint64_t register_sum() const {
    uint64_t sum = 0;
    for (std::size_t st = 0; st < pipe.num_stages(); ++st)
      for (const auto& t : pipe.stage(st).tables())
        if (auto* s = dynamic_cast<SModule*>(t.get()))
          for (std::size_t i = 0; i < s->registers().size(); ++i)
            sum += s->registers().read(i);
    return sum;
  }
};

TEST(HotPathAlloc, SteadyStateBurstLoopAllocatesNothing) {
  ASSERT_GT(g_allocs.load(), 0u) << "interposer not linked in";

  // --- setup (allocation is free here) --------------------------------
  const QueryMix mix;
  ASSERT_EQ(mix.ctl.num_installed(), 2 + kTenants);
  const std::vector<Packet>& pkts = mix.pkts;
  PrereservedSink sink;
  sink.records.reserve(4 * kPackets);
  Replica rep(mix.sw, sink);
  ASSERT_NE(rep.init, nullptr);
  Pipeline& replica = rep.pipe;
  InitModule* init = rep.init.get();

  // The demux's staging buffer, the ring, and the worker's PHV buffer.
  SpscRing<WorkItem> ring(256);
  std::vector<WorkItem> staged(kBurst);
  std::vector<Phv> phvs(kBurst);

  // Warm-up pass: fault in any lazy one-time work.
  for (std::size_t i = 0; i < kBurst; ++i) {
    phvs[i].reset();
    phvs[i].pkt = pkts[i];
  }
  init->execute_burst(phvs.data(), kBurst);
  replica.process_burst(phvs.data(), kBurst);
  const std::size_t warm_reports = sink.records.size();
  ASSERT_GT(warm_reports, 0u) << "packet mix produced no reports";

  // --- measured region ------------------------------------------------
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::size_t done = 0;
  while (done < kPackets) {
    // Demux side: stage a burst, one bulk push.
    std::size_t n = 0;
    while (n < kBurst && done + n < kPackets) {
      staged[n] = {WorkItem::Kind::Packet, 1, pkts[done + n]};
      ++n;
    }
    ASSERT_EQ(ring.try_push_bulk(staged.data(), n), n);
    // Worker side: in-place peek (a burst that wraps comes back in two
    // pieces), PHVs loaded straight from the ring slots, stage-major burst,
    // consume.
    for (std::size_t got = 0; got < n;) {
      const std::span<const WorkItem> items = ring.peek(kBurst);
      ASSERT_FALSE(items.empty());
      for (std::size_t i = 0; i < items.size(); ++i) {
        phvs[i].reset();
        phvs[i].pkt = items[i].pkt;
      }
      init->execute_burst(phvs.data(), items.size());
      replica.process_burst(phvs.data(), items.size());
      ring.consume(items.size());
      got += items.size();
    }
    done += n;
  }
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  // --- end measured region --------------------------------------------

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the steady-state loop";
  EXPECT_GT(sink.records.size(), warm_reports) << "R path never fired";

  // Sanity: state actually moved (the loop did real work, not no-ops).
  EXPECT_GT(rep.register_sum(), 0u);
}

// The compiled path: the same mix through a CompiledPipeline built on the
// replica, cut into runs as the worker cuts them (compile::run_length).
// The warm-up feeds only non-SYN packets, so the multi-query set (q1 plus
// syn_export on every SYN) is first seen inside the measured region: its
// chains are put in stage order there, in inline scratch.
TEST(HotPathAlloc, CompiledRunLoopAllocatesNothing) {
  ASSERT_GT(g_allocs.load(), 0u) << "interposer not linked in";

  // --- setup (allocation is free here) --------------------------------
  const QueryMix mix;
  PrereservedSink sink;
  sink.records.reserve(4 * kPackets);
  Replica rep(mix.sw, sink);
  ASSERT_NE(rep.init, nullptr);
  compile::CompiledPipeline exec;
  exec.build(rep.pipe, kBurst, {});
  ASSERT_TRUE(exec.enabled());
  std::vector<Phv> phvs(kBurst);
  uint64_t multi = 0;
  const auto burst = [&](const Packet* pkts, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      phvs[i].reset();
      phvs[i].pkt = pkts[i];
    }
    rep.init->execute_burst(phvs.data(), n);
    for (std::size_t i = 0; i < n;) {
      const std::size_t len = compile::run_length(phvs.data() + i, n - i);
      if (!exec.execute_run(phvs.data() + i, len) &&
          !phvs[i].active_list.empty())
        multi += len;
      i += len;
    }
  };

  // Warm-up: one burst of the mix's non-SYN packets.
  std::vector<Packet> warm;
  for (const Packet& p : mix.pkts)
    if (warm.size() < kBurst && p.get(Field::TcpFlags) != kTcpSyn)
      warm.push_back(p);
  burst(warm.data(), warm.size());
  ASSERT_EQ(multi, 0u);

  // --- measured region ------------------------------------------------
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t done = 0; done < kPackets; done += kBurst)
    burst(mix.pkts.data() + done, std::min(kBurst, kPackets - done));
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  // --- end measured region --------------------------------------------

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the compiled run loop";
  EXPECT_GT(multi, 0u) << "no multi-query run";
  EXPECT_GT(sink.records.size(), 0u) << "R path never fired";
  EXPECT_GT(rep.register_sum(), 0u);
}

// The ingest sources' pull contract (src/ingest/source.h): after a warm-up
// burst sizes the reusable buffers, the steady-state pull loop performs no
// heap allocation — for the in-memory source, the streaming pcap reader,
// and the replay wrapper stacked on top of it.
TEST(HotPathAlloc, IngestSourcePullLoopAllocatesNothing) {
  ASSERT_GT(g_allocs.load(), 0u) << "interposer not linked in";

  // --- setup (allocation is free here) --------------------------------
  constexpr std::size_t kBurst = 64;
  constexpr std::size_t kPackets = 4'096;
  Trace t;
  t.packets.reserve(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i)
    t.packets.push_back(make_packet(
        static_cast<uint32_t>(i % 251), 7, 1000 + static_cast<uint32_t>(i % 53),
        80, kProtoUdp, 0, /*pkt_len=*/128, i * 1000));
  const std::string path =
      (std::filesystem::temp_directory_path() / "newton_alloc.pcap").string();
  save_pcap(t, path);

  ingest::PcapFileSource file_src(path);
  ingest::TraceSource trace_src(t);
  ingest::ReplaySource replay(trace_src, {.rate = 0.0});  // unpaced wrapper
  std::vector<Packet> buf(kBurst);

  // Warm-up: fault in lazily-sized buffers (pcap record buffer, replay
  // pull-ahead ring).
  std::size_t warmed = file_src.pull(buf.data(), kBurst);
  warmed += replay.pull(buf.data(), kBurst);
  ASSERT_GT(warmed, 0u);

  // --- measured region ------------------------------------------------
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  uint64_t pulled = 0;
  while (!file_src.done()) pulled += file_src.pull(buf.data(), kBurst);
  while (!replay.done()) pulled += replay.pull(buf.data(), kBurst);
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  // --- end measured region --------------------------------------------

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the source pull loop";
  EXPECT_EQ(pulled + warmed, 2 * kPackets);
  std::remove(path.c_str());
}

// A sliced deployment on a k=4 fat-tree: every SYN starts an execution at
// its ingress edge switch, and its SP header rides the remaining hops (or
// is handed off as deferred where the path is shorter than the slices).
TEST(HotPathAlloc, FleetSendAllocatesNothing) {
  ASSERT_GT(g_allocs.load(), 0u) << "interposer not linked in";

  // --- setup (allocation is free here) --------------------------------
  struct CountingSink : ReportSink {
    uint64_t reports = 0;
    void report(const ReportRecord&) override { ++reports; }
  } sink;
  constexpr std::size_t kBank = 1 << 14;
  Network net(make_fat_tree(4), /*stages=*/3, &sink, kBank);
  NetworkController ctl(net, nullptr, kBank);
  QueryParams params;
  params.sketch_width = 1024;
  params.q1_syn_th = 8;
  const auto& dep = ctl.deploy(make_q1(params));
  ASSERT_GE(dep.slices.size(), 2u);

  const std::vector<int> hosts = net.topo().hosts();
  constexpr std::size_t kSends = 800;
  const auto packet = [](std::size_t i, uint64_t ts) {
    const uint32_t u = static_cast<uint32_t>(i);
    return make_packet(ipv4(10, 0, 0, 1) + u % 29, ipv4(172, 16, 0, 1) + u % 3,
                       1000 + u % 53, 80, kProtoTcp, kTcpSyn, 64, ts);
  };
  const auto send = [&](std::size_t i, uint64_t ts) {
    return net.send(packet(i, ts), hosts[i % hosts.size()],
                    hosts[(i * 7 + 3) % hosts.size()]);
  };
  // Warm-up: the same host pairs, earlier in the same window, build every
  // route table, slice-traversal counter and header buffer.
  for (std::size_t i = 0; i < kSends; ++i) send(i, 1'000 + i);
  const uint64_t warm_sp_bytes = net.total_sp_link_bytes();
  ASSERT_GT(warm_sp_bytes, 0u) << "no SP header crossed a link";

  // --- measured region ------------------------------------------------
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::size_t hops = 0;
  for (std::size_t i = 0; i < kSends; ++i) hops += send(i, 10'000 + i).hops;
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  // --- end measured region --------------------------------------------

  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the fleet send loop";
  EXPECT_GT(hops, kSends);
  EXPECT_EQ(net.total_sp_link_bytes(), 2 * warm_sp_bytes);
  EXPECT_GT(sink.reports, 0u) << "no slice chain finished";
}

}  // namespace
}  // namespace newton
