// Fleet-scale emulation bench (ROADMAP item 4, docs/fleet.md).
//
// Newton's fleet story is that a fabric of hundreds-to-thousands of
// switches can absorb query installs and topology churn without the
// controller recomputing or the collector drowning.  This bench measures
// the three legs of that claim on k-ary fat-trees (5k^2/4 switches):
//
//   phase A  fleet-wide install latency: resiliently deploy N CQE-sliced
//            queries across every edge switch of the fabric and report the
//            wall + modeled install-latency distribution (p50/p99).
//   phase B  re-placement scope under churn: replay the same deterministic
//            switch-kill/restore + link-flap sequence against a scratch
//            (full place_resilient recompute per event) controller and an
//            incremental (subtree relaxation, docs/fleet.md) controller,
//            reporting per-event re-placement scope — the fraction of the
//            fabric each event made the placer re-evaluate — and wall
//            time.  Scratch is by construction ~100%; the incremental
//            fraction is the headline number and is gated in CI.
//   phase C  report volume: stream an attack-mix trace through the fabric
//            with the k-ary AggregationTree interposed as every switch's
//            report sink, and report leaf-vs-root record volume, the
//            per-edge merge compression, and the tree shape; plus the
//            phase's wall-clock packet rate, ns per Network::send, and route
//            distance tables built per 1k packets.
//
//   bench_fleet [--k 16[,24,32]]      fat-tree arities (default 16)
//               [--fanin N]           aggregation-tree fan-in (default 16)
//               [--queries N]         deployed queries (default 8)
//               [--stages N]          per-switch stage budget (default 3,
//                                     small so queries slice across hops)
//               [--churn-events N]    phase-B events per arity (default 24)
//               [--packets N]         phase-C trace packets (default 20000)
//               [--seed S]            churn/trace seed (default 1)
//               [--verify]            arm the incremental-vs-scratch
//                                     placement oracle on every event
//               [--max-touch-frac X]  exit 1 if the mean incremental
//                                     switch-churn scope fraction at the
//                                     first arity exceeds X (CI gate: 0.20)
//               [--max-install-ms X]  exit 1 if p99 wall install latency at
//                                     the first arity exceeds X ms
//
// Writes BENCH_fleet.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "bench_util.h"
#include "core/query.h"
#include "net/agg_tree.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "net/topology.h"

namespace newton {
namespace {

uint64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

// Small per-tenant query: narrow sketch (the fleet bench measures control
// and collection planes, not sketch accuracy), unreachable when-threshold
// kept OFF so phase C actually produces reports.
Query fleet_query(const std::string& name, uint16_t dport) {
  QueryBuilder b(name);
  b.sketch(2, 256);
  b.filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp))
      .map({Field::DstIp})
      .distinct({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, 2 + dport % 3);
  Query q = b.build();
  q.window_ns = 100'000'000;
  q.row_partitions = 1;
  return q;
}

struct CountingSink : ReportSink {
  ReportSink* down = nullptr;
  uint64_t n = 0;
  void report(const ReportRecord& r) override {
    ++n;
    if (down) down->report(r);
  }
};

// Deterministic host pairing (the difftest fault axis scheme).
std::size_t src_of(std::size_t i, std::size_t n) { return (i * 7 + 1) % n; }
std::size_t dst_of(std::size_t i, std::size_t n) {
  std::size_t d = (i * 11 + 5) % n;
  if (d == src_of(i, n)) d = (d + 1) % n;
  return d;
}

struct ChurnResult {
  double scope_avg_frac = 0;   // mean per-event scope / fabric size
  double scope_max_frac = 0;
  double sw_scope_avg_frac = 0;  // same, switch-kill/restore events only
  double changed_avg = 0;      // switches whose assignment moved (inc only)
  double wall_ms_avg = 0;
  std::size_t events = 0;
};

// The same deterministic event sequence for both modes: two switch events
// (kill + restore) twice, then one link flap (down + up), repeating.
ChurnResult run_churn(Network& net, NetworkController& ctl,
                      std::size_t n_events, uint32_t seed) {
  Topology& t = net.topo();
  const std::vector<int> sws = t.switches();
  std::vector<std::pair<int, int>> links;
  for (int s : sws)
    for (int n : t.adj.at(static_cast<std::size_t>(s)))
      if (t.is_switch(n) && s < n) links.push_back({s, n});

  ChurnResult r;
  double scope_sum = 0, sw_scope_sum = 0, changed_sum = 0, wall_sum = 0;
  std::size_t sw_events = 0, samples = 0;
  uint64_t x = seed * 2654435761u + 12345u;
  const auto next = [&] { return x = x * 6364136223846793005ull + 1442695040888963407ull; };

  const auto timed = [&](bool sw_event, auto&& fn) {
    const auto& fs = ctl.fault_stats();
    const uint64_t e0 = fs.replace_events, s0 = fs.replace_scope_switches;
    const uint64_t c0 = fs.replace_changed_switches;
    const uint64_t w0 = wall_ns();
    fn();
    const uint64_t w1 = wall_ns();
    const uint64_t de = fs.replace_events - e0;
    if (de == 0) return;
    const double scope =
        static_cast<double>(fs.replace_scope_switches - s0) /
        static_cast<double>(de);
    const double frac = scope / static_cast<double>(sws.size());
    scope_sum += frac;
    r.scope_max_frac = std::max(r.scope_max_frac, frac);
    changed_sum += static_cast<double>(fs.replace_changed_switches - c0) /
                   static_cast<double>(de);
    if (sw_event) {
      sw_scope_sum += frac;
      ++sw_events;
    }
    wall_sum += static_cast<double>(w1 - w0) / 1e6;
    ++samples;
  };

  for (std::size_t i = 0; i < n_events; ++i) {
    if (i % 3 == 2 && !links.empty()) {
      const auto [a, b] = links[next() % links.size()];
      if (!t.link_up(a, b)) continue;
      t.fail_link(a, b);
      timed(false, [&] { ctl.on_link_failed(a, b); });
      t.restore_link(a, b);
      timed(false, [&] { ctl.on_link_restored(a, b); });
    } else {
      const int s = sws[next() % sws.size()];
      if (!t.node_up(s)) continue;
      t.fail_node(s);
      timed(true, [&] { ctl.on_switch_failed(s); });
      t.restore_node(s);
      timed(true, [&] { ctl.on_switch_restored(s); });
    }
  }
  r.events = samples;
  if (samples > 0) {
    r.scope_avg_frac = scope_sum / static_cast<double>(samples);
    r.changed_avg = changed_sum / static_cast<double>(samples);
    r.wall_ms_avg = wall_sum / static_cast<double>(samples);
  }
  if (sw_events > 0)
    r.sw_scope_avg_frac = sw_scope_sum / static_cast<double>(sw_events);
  return r;
}

}  // namespace
}  // namespace newton

int main(int argc, char** argv) {
  using namespace newton;
  std::vector<int> ks = {16};
  std::size_t fanin = 16;
  std::size_t n_queries = 8;
  std::size_t stages = 3;
  std::size_t churn_events = 24;
  std::size_t n_packets = 20'000;
  uint32_t seed = 1;
  bool verify = false;
  double max_touch_frac = 0.0;
  double max_install_ms = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--k" && has_next) {
      ks.clear();
      const char* p = argv[++i];
      while (*p) {
        ks.push_back(std::atoi(p));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (a == "--fanin" && has_next)
      fanin = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--queries" && has_next)
      n_queries = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--stages" && has_next)
      stages = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--churn-events" && has_next)
      churn_events = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--packets" && has_next)
      n_packets = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (a == "--seed" && has_next)
      seed = static_cast<uint32_t>(std::atol(argv[++i]));
    else if (a == "--verify")
      verify = true;
    else if (a == "--max-touch-frac" && has_next)
      max_touch_frac = std::atof(argv[++i]);
    else if (a == "--max-install-ms" && has_next)
      max_install_ms = std::atof(argv[++i]);
    else {
      std::fprintf(stderr,
                   "usage: bench_fleet [--k 16[,24,32]] [--fanin N] "
                   "[--queries N] [--stages N]\n"
                   "                   [--churn-events N] [--packets N] "
                   "[--seed S] [--verify]\n"
                   "                   [--max-touch-frac X] "
                   "[--max-install-ms X]\n");
      return 2;
    }
  }

  bench::header("fleet-scale emulation: install, re-placement, collection "
                "(ISSUE 10)");

  constexpr std::size_t kBank = 4096;
  Trace trace = generate_trace(bench::bench_caida(seed));
  if (trace.size() > n_packets) trace.packets.resize(n_packets);

  FILE* f = std::fopen("BENCH_fleet.json", "w");
  if (f) std::fprintf(f, "{\n  \"fabrics\": [");

  int rc = 0;
  bool first_k = true;
  for (int k : ks) {
    const Topology topo = make_fat_tree(k);
    const std::size_t S = topo.switches().size();
    const std::size_t H = topo.hosts().size();
    std::size_t L = 0;
    for (std::size_t n = 0; n < topo.adj.size(); ++n) L += topo.adj[n].size();
    L /= 2;
    std::printf("\nfat-tree k=%d: %zu switches, %zu hosts, %zu links\n", k, S,
                H, L);

    // --- phase A: fleet-wide install latency (incremental controller) ---
    Analyzer an;
    Network net(topo, stages, &an, kBank);
    NetworkController ctl(net, &an, kBank);
    ctl.set_placement_mode(PlacementMode::Incremental);
    if (verify) ctl.set_verify_placement(true);

    std::vector<double> wall_ms, model_ms;
    std::size_t n_slices = 0, placed_switches = 0;
    for (std::size_t i = 0; i < n_queries; ++i) {
      const uint64_t a = wall_ns();
      const auto& d = ctl.deploy(
          fleet_query("fleet" + std::to_string(i),
                      static_cast<uint16_t>(20'000 + i)));
      const uint64_t b = wall_ns();
      wall_ms.push_back(static_cast<double>(b - a) / 1e6);
      model_ms.push_back(d.total_latency_ms);
      n_slices = d.slices.size();
      placed_switches = d.placement.assignment.size();
    }
    const double ip50 = percentile(wall_ms, 0.50);
    const double ip99 = percentile(wall_ms, 0.99);
    const double mp50 = percentile(model_ms, 0.50);
    const double mp99 = percentile(model_ms, 0.99);
    std::printf("phase A: %zu queries x %zu slices, placement spans %zu "
                "switches\n",
                n_queries, n_slices, placed_switches);
    std::printf("  install wall    p50 %.2f ms  p99 %.2f ms\n", ip50, ip99);
    std::printf("  install modeled p50 %.2f ms  p99 %.2f ms\n", mp50, mp99);

    // --- phase B: re-placement scope, scratch baseline vs incremental ---
    ChurnResult scr;
    {
      Analyzer an2;
      Network net2(topo, stages, &an2, kBank);
      NetworkController ctl2(net2, &an2, kBank);
      ctl2.set_placement_mode(PlacementMode::Scratch);
      for (std::size_t i = 0; i < n_queries; ++i)
        ctl2.deploy(fleet_query("fleet" + std::to_string(i),
                                static_cast<uint16_t>(20'000 + i)));
      scr = run_churn(net2, ctl2, churn_events, seed);
    }
    const ChurnResult inc = run_churn(net, ctl, churn_events, seed);
    std::printf("phase B: %zu churn events (switch kill/restore + link "
                "flaps)\n",
                inc.events);
    std::printf("  scratch     scope avg %5.1f%%  wall/event %.3f ms\n",
                scr.scope_avg_frac * 100, scr.wall_ms_avg);
    std::printf("  incremental scope avg %5.1f%% (switch events %5.1f%%, max "
                "%5.1f%%), changed avg %.1f, wall/event %.3f ms\n",
                inc.scope_avg_frac * 100, inc.sw_scope_avg_frac * 100,
                inc.scope_max_frac * 100, inc.changed_avg, inc.wall_ms_avg);
    if (inc.wall_ms_avg > 0)
      std::printf("  re-placement speedup %.1fx\n",
                  scr.wall_ms_avg / inc.wall_ms_avg);

    // --- phase C: report volume through the aggregation tree ---
    Analyzer down;
    CountingSink root_count;
    root_count.down = &down;
    AggregationTree::Options topt;
    topt.fanin = fanin;
    topt.window_ns = 100'000'000;
    topt.attribution = &an;
    AggregationTree tree(topo, &root_count, topt);
    for (std::size_t i = 0; i < n_queries; ++i) {
      const std::string name = "fleet" + std::to_string(i);
      if (const auto* sl = ctl.slices_of(name))
        tree.set_merge_op(name, merge_op_for_slices(*sl));
    }
    for (int n : topo.switches())
      if (net.has_switch(n)) net.sw(n).set_sink(&tree);
    const std::vector<int> hosts = net.topo().hosts();
    const uint64_t tables0 = net.route_stats().tables_built;
    const uint64_t c0 = wall_ns();
    for (std::size_t i = 0; i < trace.packets.size(); ++i)
      net.send(trace.packets[i],
               hosts[src_of(i, hosts.size())],
               hosts[dst_of(i, hosts.size())]);
    const uint64_t c_sent = wall_ns();
    for (int n : net.topo().switches())
      if (net.has_switch(n)) net.sw(n).flush_telemetry();
    tree.flush();
    const uint64_t c1 = wall_ns();
    const double n_pkts = static_cast<double>(trace.size());
    const double send_ns = static_cast<double>(c_sent - c0) / n_pkts;
    const double phase_c_pps = n_pkts * 1e9 / static_cast<double>(c1 - c0);
    const double tables_per_kpkt =
        1000.0 * static_cast<double>(net.route_stats().tables_built - tables0) /
        n_pkts;
    const AggregationTree::Stats& ts = tree.stats();
    const double compression =
        ts.root_records ? static_cast<double>(ts.reports_in) /
                              static_cast<double>(ts.root_records)
                        : 0.0;
    std::printf("phase C: %zu packets, agg tree depth %zu, %zu nodes, max "
                "fan-in %zu\n",
                trace.size(), ts.depth, ts.nodes, ts.max_fanin);
    std::printf("  leaf reports %llu -> root records %llu (%.1fx "
                "compression, %llu merged, %llu deferred passthrough), "
                "%.1f ms\n",
                static_cast<unsigned long long>(ts.reports_in),
                static_cast<unsigned long long>(ts.root_records),
                compression,
                static_cast<unsigned long long>(ts.merged_away),
                static_cast<unsigned long long>(ts.passthrough),
                static_cast<double>(c1 - c0) / 1e6);
    std::printf("  %.0f pkt/s wall, %.0f ns per Network::send, %.2f route "
                "tables built per 1k packets\n",
                phase_c_pps, send_ns, tables_per_kpkt);

    if (f)
      std::fprintf(
          f,
          "%s\n    {\"k\": %d, \"switches\": %zu, \"hosts\": %zu, "
          "\"links\": %zu,\n"
          "     \"queries\": %zu, \"slices\": %zu, "
          "\"placed_switches\": %zu,\n"
          "     \"install_wall_ms\": {\"p50\": %.4f, \"p99\": %.4f},\n"
          "     \"install_model_ms\": {\"p50\": %.4f, \"p99\": %.4f},\n"
          "     \"churn_events\": %zu,\n"
          "     \"scratch_scope_frac\": %.4f, "
          "\"scratch_wall_ms\": %.4f,\n"
          "     \"inc_scope_frac\": %.4f, \"inc_switch_scope_frac\": %.4f, "
          "\"inc_scope_max_frac\": %.4f,\n"
          "     \"inc_changed_avg\": %.2f, \"inc_wall_ms\": %.4f,\n"
          "     \"agg_fanin\": %zu, \"agg_depth\": %zu, "
          "\"agg_nodes\": %zu,\n"
          "     \"reports_in\": %llu, \"root_records\": %llu, "
          "\"compression\": %.2f,\n"
          "     \"packets\": %zu, \"phase_c_pps\": %.0f, "
          "\"send_ns\": %.0f,\n"
          "     \"route_tables_per_kpkt\": %.2f, \"verified\": %s}",
          first_k ? "" : ",", k, S, H, L, n_queries, n_slices,
          placed_switches, ip50, ip99, mp50, mp99, inc.events,
          scr.scope_avg_frac, scr.wall_ms_avg, inc.scope_avg_frac,
          inc.sw_scope_avg_frac, inc.scope_max_frac, inc.changed_avg,
          inc.wall_ms_avg, fanin, ts.depth, ts.nodes,
          static_cast<unsigned long long>(ts.reports_in),
          static_cast<unsigned long long>(ts.root_records), compression,
          trace.size(), phase_c_pps, send_ns, tables_per_kpkt,
          verify ? "true" : "false");

    // CI gates apply to the first (smallest) arity.
    if (first_k) {
      if (max_touch_frac > 0 && inc.sw_scope_avg_frac > max_touch_frac) {
        std::fprintf(stderr,
                     "FAIL: incremental switch-churn scope %.1f%% > gate "
                     "%.1f%%\n",
                     inc.sw_scope_avg_frac * 100, max_touch_frac * 100);
        rc = 1;
      }
      if (max_install_ms > 0 && ip99 > max_install_ms) {
        std::fprintf(stderr, "FAIL: p99 install wall %.2f ms > gate %.2f ms\n",
                     ip99, max_install_ms);
        rc = 1;
      }
      if (scr.scope_avg_frac < 0.5) {
        std::fprintf(stderr,
                     "FAIL: scratch baseline scope %.1f%% — expected a "
                     "full-fabric recompute\n",
                     scr.scope_avg_frac * 100);
        rc = 1;
      }
    }
    first_k = false;
  }

  if (f) {
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_fleet.json\n");
  }
  return rc;
}
