// Workload q135-trace: the CAIDA-like bench trace with a SYN flood, a UDP
// flood and a superspreader injected, queries q1/q3/q5 on a 1-shard
// ShardedRuntime, replayed packet by packet through process().  Nearly
// every packet takes the fused compiled path and windows hold hundreds of
// thousands of packets, so this workload isolates demux, newton_init and
// the fused executor; ingest, barriers, the analyzer and `net` are bypassed.
#include <memory>

#include "bench.h"
#include "core/controller.h"
#include "core/queries.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"
#include "trace/attacks.h"

namespace perfbench {

using namespace newton;

namespace {

constexpr const char* kName = "q135-trace";
constexpr uint64_t kWindowNs = 100'000'000;

std::vector<Query> queries() {
  const QueryParams p;
  return {make_q1(p), make_q3(p), make_q5(p)};
}

Trace make_input(uint32_t seed, std::size_t target) {
  TraceProfile prof = caida_like(seed);
  prof.num_flows = 30'000;
  Trace base = generate_trace(prof);
  std::mt19937 rng(seed + 1006);
  inject_syn_flood(base, ipv4(172, 16, 200, 1), 300, 1, 50'000'000, rng);
  inject_udp_flood(base, ipv4(172, 16, 200, 3), 120, 2, 250'000'000, rng);
  inject_super_spreader(base, ipv4(198, 18, 4, 4), 150, 550'000'000, rng);
  base.sort_by_time();
  return tile(base, target, kWindowNs);
}

// Single-threaded oracle: the same queries on a plain NewtonSwitch.
std::vector<ReportRecord> oracle(const std::vector<Packet>& pkts) {
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, &buf);
  Controller ctl(sw);
  for (const Query& q : queries()) ctl.install(q);
  for (const Packet& p : pkts) sw.process(p);
  return buf.records();
}

}  // namespace

void run_q135(const Options& o, Results& r) {
  const Trace input = make_input(o.seed, o.tiny ? 400'000 : 2'400'000);
  const std::vector<Packet>& pkts = input.packets;
  const auto crossings = window_crossings(pkts, kWindowNs);
  const std::vector<ReportRecord> want = oracle(pkts);

  RuntimeWorkload w;
  w.name = kName;
  w.stages = 24;
  w.options.num_shards = 1;
  w.options.queue_capacity = 8192;
  w.options.shard_key = ShardKey::on({});  // one shard: a constant key is affine
  w.window_ns = kWindowNs;
  w.want = &want;
  w.packets = &pkts;
  w.installs = queries().size();
  w.setup = [](ShardedRuntime& rt, telemetry::Registry&) {
    for (const Query& q : queries()) rt.install(q);
  };
  w.drive = [&](ShardedRuntime& rt, Tracer& tr) {
    Drive d;
    drive_runtime(rt, pkts, crossings, {}, [](std::size_t) {}, tr,
                  d.delays_ms);
    d.demux_pkts = pkts.size() - d.delays_ms.size();
    return d;
  };
  Tracer tr;
  run_runtime_workload(o, w, tr, r);

  r.prop("packets_per_pass", static_cast<double>(pkts.size()));
  r.prop("windows_per_pass", static_cast<double>(crossings.size() + 1));
  r.prop("packets_per_window",
         static_cast<double>(pkts.size()) / (crossings.size() + 1));
  r.prop("oracle_reports_per_pass", static_cast<double>(want.size()));
  r.prop("reports_per_kpkt",
         1000.0 * static_cast<double>(want.size()) / pkts.size());
  r.prop("shards", 1.0);
  r.prop("hops_per_pkt", 1.0);
  if (o.trace) tr.write(o.data_dir + "/spans-q135-trace.json");
}

}  // namespace perfbench
