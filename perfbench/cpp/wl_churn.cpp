// Workload tenant-churn: 100 small tenant queries (each filtered on its own
// dport, keyed on sip, with a reachable threshold) on a 64-stage switch run
// by a 2-shard ShardedRuntime sharded on sip.  Every third window one
// install and one withdraw are queued mid-window, so rule writes run beside
// packet reads: mutation barriers do admission, replica reload and a 2-way
// bank merge, the windows after them run interpreted until the debounced
// recompile at the next barrier.
#include <memory>
#include <random>

#include "bench.h"
#include "core/controller.h"
#include "core/query.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"

namespace perfbench {

using namespace newton;

namespace {

constexpr const char* kName = "tenant-churn";
constexpr uint64_t kWindowNs = 100'000'000;
constexpr std::size_t kBaseTenants = 100;
constexpr std::size_t kChurnPorts = 64;   // ports churned tenants filter on
constexpr std::size_t kChurnLive = 8;     // churned tenants alive at once
constexpr std::size_t kPktsPerWindow = 3'000;
constexpr uint32_t kThreshold = 6;        // per-sip packets per window

Query tenant_query(const std::string& name, uint16_t dport) {
  QueryBuilder b(name);
  b.sketch(2, 256);
  b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq, dport))
      .map({Field::SrcIp})
      .reduce({Field::SrcIp}, Agg::Sum)
      .when(Cmp::Ge, kThreshold);
  Query q = b.build();
  q.window_ns = kWindowNs;
  q.row_partitions = 1;
  return q;
}

uint16_t base_port(std::size_t i) { return static_cast<uint16_t>(20'000 + i); }
uint16_t churn_port(std::size_t k) {
  return static_cast<uint16_t>(30'000 + k % kChurnPorts);
}

// Tenant traffic: skewed sources towards the tenants' ports, plus a share
// of web traffic no tenant watches.  Evenly spaced, so every window holds
// exactly kPktsPerWindow packets.
std::vector<Packet> make_input(uint32_t seed, std::size_t windows) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const uint64_t gap = kWindowNs / kPktsPerWindow;
  std::vector<Packet> out;
  out.reserve(windows * kPktsPerWindow);
  for (std::size_t i = 0; i < windows * kPktsPerWindow; ++i) {
    Packet p;
    p.ts_ns = i * gap;
    const double x = u(rng);
    const auto rank = static_cast<uint32_t>(2048.0 * x * x * x * x);
    p.set(Field::SrcIp, ipv4(10, 1, static_cast<uint8_t>(rank >> 8),
                             static_cast<uint8_t>(rank)));
    p.set(Field::DstIp, ipv4(172, 16, 0, static_cast<uint8_t>(rng() % 256)));
    p.set(Field::SrcPort, 1024 + static_cast<uint32_t>(rng() % 60'000));
    const double c = u(rng);
    uint16_t dport = 443;
    if (c < 0.6)
      dport = base_port(rng() % kBaseTenants);
    else if (c < 0.8)
      dport = churn_port(rng() % kChurnPorts);
    else if (c < 0.9)
      dport = 80;
    p.set(Field::DstPort, dport);
    p.set(Field::Proto, kProtoTcp);
    p.set(Field::TcpFlags, 0x10);
    p.wire_len = 64 + static_cast<uint32_t>(rng() % 1400);
    p.set(Field::PktLen, p.wire_len);
    out.push_back(p);
  }
  return out;
}

// The mutation schedule: in every third window (1, 4, 7, ...), at its
// midpoint, install the next churned tenant and withdraw the one installed
// kChurnLive batches ago.  The barriers then cycle through three kinds in
// equal numbers: one applying a batch, one running the debounced recompile,
// one plain.  So the per-pass median delay lies inside the middle kind, not
// on the edge between two.
struct Mutation {
  std::size_t at = 0;  // packet index the batch is queued before
  std::size_t k = 0;   // churned tenant number
};

constexpr std::size_t kMutateEvery = 3;  // windows

std::vector<Mutation> schedule(std::size_t windows) {
  std::vector<Mutation> m;
  for (std::size_t w = 1, k = 0; w < windows; w += kMutateEvery, ++k)
    m.push_back({w * kPktsPerWindow + kPktsPerWindow / 2, k});
  return m;
}

std::string churn_name(std::size_t k) { return "churn" + std::to_string(k); }

template <class Install, class Withdraw>
void apply(const Mutation& m, Install&& install, Withdraw&& withdraw) {
  install(tenant_query(churn_name(m.k), churn_port(m.k)));
  if (m.k >= kChurnLive) withdraw(churn_name(m.k - kChurnLive));
}

std::string tenant_of(std::size_t i) { return "tenant" + std::to_string(i % 8); }

// Oracle: one plain NewtonSwitch per shard, each replaying its shard's
// packets single-threaded (sketch rows are per-shard in the runtime, so a
// colliding bucket sums only its own shard's keys).  Every switch's
// Controller applies each queued batch at the window boundary after it,
// exactly where the runtime's barrier applies it.
std::vector<ReportRecord> oracle(const std::vector<Packet>& pkts,
                                 const std::vector<std::size_t>& crossings,
                                 const std::vector<Mutation>& muts,
                                 const ShardKey& key, std::size_t shards) {
  ReportBuffer buf;
  std::vector<std::unique_ptr<NewtonSwitch>> sws;
  std::vector<std::unique_ptr<Controller>> ctls;
  for (std::size_t s = 0; s < shards; ++s) {
    sws.push_back(std::make_unique<NewtonSwitch>(1, 64, &buf));
    ctls.push_back(std::make_unique<Controller>(*sws.back()));
    for (std::size_t i = 0; i < kBaseTenants; ++i)
      ctls.back()->install(tenant_query("t" + std::to_string(i), base_port(i)),
                           {}, tenant_of(i));
  }
  std::vector<const Mutation*> pending;
  std::size_t mi = 0, ci = 0;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (mi < muts.size() && muts[mi].at == i) pending.push_back(&muts[mi++]);
    if (ci < crossings.size() && crossings[ci] == i) {
      ++ci;
      for (const Mutation* m : pending)
        for (auto& ctl : ctls)
          apply(
              *m,
              [&](const Query& q) { ctl->try_install(q, {}, "churn-tenant"); },
              [&](const std::string& n) {
                if (ctl->installed(n)) ctl->remove(n);
              });
      pending.clear();
    }
    sws[key.shard_of(pkts[i], shards)]->process(pkts[i]);
  }
  return buf.records();
}

constexpr std::size_t kShards = 2;
// Every tenant query reduces on sip, so sip sharding is affine.
const ShardKey kShardKey = ShardKey::on({Field::SrcIp});

}  // namespace

void run_churn(const Options& o, Results& r) {
  const std::size_t windows = o.tiny ? 14 : 40;
  const std::vector<Packet> pkts = make_input(o.seed, windows);
  const auto crossings = window_crossings(pkts, kWindowNs);
  const std::vector<Mutation> muts = schedule(windows);
  std::vector<std::size_t> marks;
  for (const Mutation& m : muts) marks.push_back(m.at);
  // The barrier that applies batch k is the first crossing after its mark.
  std::vector<std::size_t> applies_at;  // crossing ordinal per batch
  for (const Mutation& m : muts)
    applies_at.push_back(static_cast<std::size_t>(
        std::upper_bound(crossings.begin(), crossings.end(), m.at) -
        crossings.begin()));
  const std::vector<ReportRecord> want =
      oracle(pkts, crossings, muts, kShardKey, kShards);

  std::vector<double> install_ms;  // untraced passes
  RuntimeWorkload w;
  w.name = kName;
  w.options.num_shards = kShards;
  w.options.shard_key = kShardKey;
  w.window_ns = kWindowNs;
  w.want = &want;
  w.packets = &pkts;
  w.installs = kBaseTenants + muts.size();
  w.setup = [](ShardedRuntime& rt, telemetry::Registry&) {
    for (std::size_t t = 0; t < kBaseTenants; ++t)
      rt.install(tenant_query("t" + std::to_string(t), base_port(t)), {},
                 tenant_of(t));
  };
  w.drive = [&](ShardedRuntime& rt, Tracer& tr) {
    Drive d;
    std::vector<uint64_t> mark_ns(muts.size());
    std::vector<uint64_t> boundary_end;
    drive_runtime(
        rt, pkts, crossings, marks,
        [&](std::size_t k) {
          mark_ns[k] = now_ns();
          apply(
              muts[k],
              [&](const Query& q) { rt.install(q, {}, "churn-tenant"); },
              [&](const std::string& n) { rt.withdraw(n); });
        },
        tr, d.delays_ms, &boundary_end);
    d.demux_pkts = pkts.size() - d.delays_ms.size();
    d.mutating.assign(d.delays_ms.size(), 0);
    for (std::size_t k = 0; k < muts.size(); ++k) {
      if (applies_at[k] >= boundary_end.size()) continue;
      d.mutating[applies_at[k]] = 1;
      if (!tr.on)
        install_ms.push_back(
            static_cast<double>(boundary_end[applies_at[k]] - mark_ns[k]) /
            1e6);
    }
    return d;
  };
  Tracer tr;
  run_runtime_workload(o, w, tr, r);
  r.set("intent.install_ms_p50", percentile(install_ms, 0.50));
  r.set("intent.install_ms_p95", percentile(install_ms, 0.95));

  r.prop("packets_per_pass", static_cast<double>(pkts.size()));
  r.prop("windows_per_pass", static_cast<double>(windows));
  r.prop("packets_per_window", static_cast<double>(kPktsPerWindow));
  r.prop("mutation_batches_per_pass", static_cast<double>(muts.size()));
  r.prop("install_samples", static_cast<double>(install_ms.size()));
  r.prop("install_ms_p50", percentile(install_ms, 0.50));
  r.prop("install_ms_p95", percentile(install_ms, 0.95));
  r.prop("oracle_reports_per_pass", static_cast<double>(want.size()));
  r.prop("reports_per_kpkt",
         1000.0 * static_cast<double>(want.size()) / pkts.size());
  r.prop("shards", static_cast<double>(kShards));
  r.prop("hops_per_pkt", 1.0);
  if (o.trace) tr.write(o.data_dir + "/spans-tenant-churn.json");
}

}  // namespace perfbench
