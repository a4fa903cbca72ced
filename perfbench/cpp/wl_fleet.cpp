// Workload fleet-k16: a k=16 fat-tree Network (320 switches, 1,024 hosts)
// with a 3-stage budget, so the 8 deployed queries slice across hops (CQE).
// An AggregationTree is every switch's report sink.  Each pass runs
// deploy/withdraw cycles through NetworkController, then a Network::send
// stream with one churn event per window: a core or aggregation switch is
// killed and later restored, or a switch-to-switch link flaps, so no host is
// ever cut off.  The only workload that runs through `net`: routing,
// per-hop NewtonSwitch::process with the SP codec, the tree, and
// incremental placement.
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <tuple>

#include "analyzer/analyzer.h"
#include "bench.h"
#include "core/query.h"
#include "net/agg_tree.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "net/placement.h"
#include "net/routing.h"
#include "net/topology.h"
#include "packet/flow_key.h"

namespace perfbench {

using namespace newton;

namespace {

constexpr const char* kName = "fleet-k16";
constexpr uint64_t kWindowNs = 100'000'000;
constexpr std::size_t kBank = 8192;  // room for the cycled deploy
constexpr std::size_t kStages = 3;
constexpr std::size_t kQueries = 8;
constexpr std::size_t kPktsPerWindow = 200;
constexpr std::size_t kChunks = 8;

Query fleet_query(const std::string& name, uint16_t salt) {
  QueryBuilder b(name);
  b.sketch(2, 256);
  b.filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp))
      .map({Field::DstIp})
      .distinct({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, 2 + salt % 3);
  Query q = b.build();
  q.window_ns = kWindowNs;
  q.row_partitions = 1;
  return q;
}

// Key of one report in the collection keyset: (owner query, branch, window,
// next slice, deferred, operation keys).  Unattributed records keep their
// (switch, qid) as the owner, exactly as the tree merges them.
using CollectKey = std::tuple<std::string, uint64_t, uint64_t, uint8_t, bool,
                              std::array<uint32_t, kNumFields>>;

CollectKey collect_key(const Analyzer& attribution, const ReportRecord& r) {
  const auto* own = attribution.owner_of(r.switch_id, r.qid);
  return {own ? own->first : std::string(),
          own ? own->second
              : (static_cast<uint64_t>(r.switch_id) << 16) | r.qid,
          r.ts_ns / kWindowNs, r.next_slice, r.deferred, r.oper_keys};
}

// Every switch's sink: keeps each leaf report (central collection, the
// gate's reference, keyed after the pass) and forwards it to the tree,
// timed when traced.
struct LeafTee : ReportSink {
  AggregationTree* tree = nullptr;
  std::vector<ReportRecord> records;
  Tracer* tr = nullptr;
  uint32_t span = 0;
  void report(const ReportRecord& r) override {
    records.push_back(r);
    if (tr->on) {
      const uint64_t a = now_ns();
      tree->report(r);
      tr->add(span, a, now_ns());
    } else {
      tree->report(r);
    }
  }
};

// The tree root's downstream: the delivered records (for the gate), then
// the software analyzer, timed when traced.
struct RootSink : ReportSink {
  RootSink(bool plant_drop, Analyzer& an, Tracer& tr)
      : gate(plant_drop), analyzer(an), tr(tr),
        span(tr.intern("analyzer.report")) {}
  GateSink gate;
  Analyzer& analyzer;
  Tracer& tr;
  uint32_t span;
  void report(const ReportRecord& r) override {
    gate.report(r);
    if (tr.on) {
      const uint64_t a = now_ns();
      analyzer.report(r);
      tr.add(span, a, now_ns());
    } else {
      analyzer.report(r);
    }
  }
};

struct Event {
  enum class Kind { KillSwitch, RestoreSwitch, FailLink, RestoreLink } kind;
  int a = -1;
  int b = -1;
};

// One churn event per window, cycling kill/restore of a core or
// aggregation switch and fail/restore of a switch-to-switch link.
std::vector<Event> churn_events(const Topology& t, std::size_t n,
                                std::mt19937_64& rng) {
  std::set<int> edges;
  for (int e : t.edge_switches()) edges.insert(e);
  std::vector<int> inner;
  std::vector<std::pair<int, int>> links;
  for (int s : t.switches()) {
    if (!edges.contains(s)) inner.push_back(s);
    for (int m : t.adj.at(static_cast<std::size_t>(s)))
      if (t.is_switch(m) && s < m) links.push_back({s, m});
  }
  std::vector<Event> out;
  while (out.size() < n) {
    const int s = inner[rng() % inner.size()];
    out.push_back({Event::Kind::KillSwitch, s, -1});
    out.push_back({Event::Kind::RestoreSwitch, s, -1});
    const auto [a, b] = links[rng() % links.size()];
    out.push_back({Event::Kind::FailLink, a, b});
    out.push_back({Event::Kind::RestoreLink, a, b});
  }
  out.resize(n);
  return out;
}

void apply_event(Network& net, NetworkController& ctl, const Event& e) {
  Topology& t = net.topo();
  switch (e.kind) {
    case Event::Kind::KillSwitch:
      t.fail_node(e.a);
      ctl.on_switch_failed(e.a);
      break;
    case Event::Kind::RestoreSwitch:
      t.restore_node(e.a);
      ctl.on_switch_restored(e.a);
      break;
    case Event::Kind::FailLink:
      t.fail_link(e.a, e.b);
      ctl.on_link_failed(e.a, e.b);
      break;
    case Event::Kind::RestoreLink:
      t.restore_link(e.a, e.b);
      ctl.on_link_restored(e.a, e.b);
      break;
  }
}

std::string qname(std::size_t i) { return "fleet" + std::to_string(i); }

}  // namespace

void run_fleet(const Options& o, Results& r) {
  const Topology topo = make_fat_tree(16);
  const std::vector<int> hosts = topo.hosts();
  const std::vector<int> ingress = topo.edge_switches();
  const std::size_t windows = o.tiny ? 6 : 30;
  const std::size_t cycles = o.tiny ? 5 : 40;

  // Input: kChunks stretches of a CAIDA-like trace, spread evenly over it,
  // each re-timed to kPktsPerWindow packets per window, with seeded host
  // pairs.
  // Pass i streams chunk i % kChunks, so a run averages over the trace.
  const std::size_t chunk_pkts = windows * kPktsPerWindow;
  const std::size_t chunks = o.tiny ? 1 : kChunks;
  std::vector<std::vector<Packet>> inputs(chunks);
  std::vector<std::pair<int, int>> ends;
  {
    TraceProfile prof = caida_like(o.seed);
    prof.num_flows = 6'000;
    const Trace t = generate_trace(prof);
    const std::size_t spacing = t.size() / chunks;
    for (std::size_t c = 0; c < chunks; ++c)
      for (std::size_t i = 0; i < chunk_pkts; ++i) {
        Packet p = t.packets[(c * spacing + i) % t.size()];
        p.ts_ns = i * (kWindowNs / kPktsPerWindow);
        inputs[c].push_back(p);
      }
    std::mt19937_64 rng(o.seed * 7919ull + 3);
    for (std::size_t i = 0; i < chunk_pkts; ++i) {
      const int src = hosts[rng() % hosts.size()];
      int dst = hosts[rng() % hosts.size()];
      if (dst == src) dst = hosts[(rng() % (hosts.size() - 1) + 1 +
                                   static_cast<std::size_t>(src)) %
                                  hosts.size()];
      ends.push_back({src, dst});
    }
  }
  const auto crossings = window_crossings(inputs[0], kWindowNs);
  std::vector<Event> events;
  {
    std::mt19937_64 rng(o.seed * 104729ull + 5);
    events = churn_events(topo, crossings.size(), rng);
  }

  Samples s;
  Tracer tr;
  const uint32_t s_route = tr.intern("net.route");
  const uint32_t s_send = tr.intern("net.send");
  const uint32_t s_agg = tr.intern("net.agg.report");
  const uint32_t s_flush = tr.intern("net.agg.flush");
  const uint32_t s_place = tr.intern("net.place");
  std::vector<double> deploy_ms, reconverge_ms, place_ms;
  uint64_t sent = 0, hops = 0, sp_bytes = 0, deferred = 0, dropped = 0;
  uint64_t leaf_reports = 0, root_records = 0, traced_pkts = 0, traced_hops = 0;
  uint64_t replace_events = 0, replace_scope = 0;
  double switch_ns_per_hop = 0;
  std::size_t leaf_hint = 0;  // leaf reports of the largest pass so far

  const auto pass = [&](std::size_t i) {
    const bool traced = o.trace && i % 2 == 1;
    const std::vector<Packet>& pkts = inputs[(o.trace ? i / 2 : i) % chunks];

    const uint64_t s0 = now_ns();
    // The controller registers every slice qid here; the tree resolves
    // owners through it and delivers its root output to it.
    Analyzer an;
    Network net(topo, kStages, nullptr, kBank);
    NetworkController ctl(net, &an, kBank);
    ctl.set_placement_mode(PlacementMode::Incremental);
    for (std::size_t q = 0; q < kQueries; ++q)
      ctl.deploy(fleet_query(qname(q), static_cast<uint16_t>(q)));
    RootSink root(o.plant_drop, an, tr);
    AggregationTree::Options topt;
    topt.fanin = 16;
    topt.window_ns = kWindowNs;
    topt.attribution = &an;
    AggregationTree tree(net.topo(), &root, topt);
    for (std::size_t q = 0; q < kQueries; ++q)
      tree.set_merge_op(qname(q), merge_op_for_slices(*ctl.slices_of(qname(q))));
    LeafTee leaf;
    leaf.tree = &tree;
    leaf.records.reserve(leaf_hint);
    leaf.tr = &tr;
    leaf.span = s_agg;
    for (int n : net.topo().switches()) net.sw(n).set_sink(&leaf);
    const uint64_t s1 = now_ns();

    // Intent-to-live: deploy/withdraw cycles on the loaded fabric.
    tr.on = traced;
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::string name = "cycle" + std::to_string(c);
      const uint64_t a = now_ns();
      const auto& d =
          ctl.deploy(fleet_query(name, static_cast<uint16_t>(c)));
      const uint64_t b = now_ns();
      if (!traced) {
        deploy_ms.push_back(static_cast<double>(b - a) / 1e6);
      } else {
        // Algorithm 2 alone, on the same inputs the deploy placed with.
        place_resilient(net.topo(), ingress, d.slices.size());
        const uint64_t p1 = now_ns();
        tr.add(s_place, b, p1);
        place_ms.push_back(static_cast<double>(p1 - b) / 1e6);
      }
      ctl.withdraw(name);
    }

    // The stream.
    std::vector<double> delays;
    uint64_t probe_ns = 0;  // route probes, not part of the pass
    const uint64_t t0 = now_ns();
    std::size_t ci = 0;
    for (std::size_t k = 0; k < pkts.size(); ++k) {
      if (ci < crossings.size() && crossings[ci] == k) {
        // Window boundary: deliver the closed window through the tree, then
        // the window's churn event.
        const uint64_t a = now_ns();
        tree.flush();
        const uint64_t b = now_ns();
        delays.push_back(static_cast<double>(b - a) / 1e6);
        if (traced) tr.add(s_flush, a, b);
        apply_event(net, ctl, events[ci]);
        if (!traced)
          reconverge_ms.push_back(static_cast<double>(now_ns() - b) / 1e6);
        ++ci;
      }
      const Packet& p = pkts[k];
      const uint64_t a = traced ? now_ns() : 0;
      const Network::SendStats st = net.send(p, ends[k].first, ends[k].second);
      if (traced) {
        const uint64_t b = now_ns();
        tr.add(s_send, a, b);
        // Probe: the routing part of send() on the same packet and
        // topology, timed beside it; net.hop_us is the rest of send().
        const auto fh =
            static_cast<uint32_t>(FiveTupleHash{}(FiveTuple::of(p)));
        const auto path = route(net.topo(), ends[k].first, ends[k].second, fh);
        if (path) (void)switches_on(net.topo(), *path);
        const uint64_t c = now_ns();
        tr.add(s_route, b, c);
        probe_ns += c - b;
        ++traced_pkts;
        traced_hops += st.hops;
      }
      ++sent;
      hops += st.hops;
      sp_bytes += st.sp_link_bytes;
      deferred += st.deferred;
      dropped += !st.delivered;
    }
    const uint64_t f0 = now_ns();
    tree.flush();
    const uint64_t t1 = now_ns();
    if (traced) tr.add(s_flush, f0, t1);
    tr.on = false;

    // Gate: the root's delivered keyset equals central collection of the
    // leaf reports, window by window.
    std::set<CollectKey> rooted, central;
    for (const ReportRecord& rec : root.gate.records)
      rooted.insert(collect_key(an, rec));
    for (const ReportRecord& rec : leaf.records)
      central.insert(collect_key(an, rec));
    leaf_hint = std::max(leaf_hint, leaf.records.size());
    if (rooted != central) {
      std::vector<CollectKey> diff;
      std::set_symmetric_difference(rooted.begin(), rooted.end(),
                                    central.begin(), central.end(),
                                    std::back_inserter(diff));
      gate_fail(kName, std::get<2>(diff.front()),
                std::to_string(rooted.size()) +
                    " keys delivered by the aggregation tree vs " +
                    std::to_string(central.size()) +
                    " by central collection");
    }
    leaf_reports += tree.stats().reports_in;
    root_records += tree.stats().root_records;
    replace_events += ctl.fault_stats().replace_events;
    replace_scope += ctl.fault_stats().replace_scope_switches;

    const double pps = static_cast<double>(pkts.size()) * 1e9 /
                       static_cast<double>(t1 - t0 - probe_ns);
    if (!traced) {
      s.pps.push_back(pps);
      s.setup_s.push_back(static_cast<double>(s1 - s0) / 1e9);
      s.add_delays(delays);
      r.attempted += pkts.size() + kQueries + cycles;
      r.failed += net.packets_dropped() + ctl.fault_stats().failed_permanent;
      return;
    }
    s.pps_traced.push_back(pps);
    if (switch_ns_per_hop == 0) {
      // NewtonSwitch::process at an ingress hop: slice 0 of every deployed
      // query on a scratch switch, the stream's packets replayed through it.
      try {
        NewtonSwitch scratch(1'000'000, kStages, nullptr, kBank);
        for (std::size_t q = 0; q < kQueries; ++q) {
          const auto* d = ctl.deployment(qname(q));
          scratch.install_slice(d->slices.front(), d->uid,
                                /*resolve_offsets=*/false);
        }
        const uint64_t a = now_ns();
        for (const Packet& p : pkts) scratch.process(p, std::nullopt, true);
        switch_ns_per_hop = static_cast<double>(now_ns() - a) /
                            static_cast<double>(pkts.size());
      } catch (const std::exception&) {
        switch_ns_per_hop = -1;  // slices did not fit a scratch switch
      }
    }
  };
  run_passes(o.tiny ? 0.0 : o.seconds, o.trace ? 2 : 1, pass);

  emit_end_to_end(s, r);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double tp = static_cast<double>(traced_pkts);
  r.set("net.route_us_per_pkt", ratio(tr.total_ns("net.route") / 1e3, tp));
  r.set("net.hop_us",
        ratio((tr.total_ns("net.send") - tr.total_ns("net.route")) / 1e3,
              static_cast<double>(traced_hops)));
  r.set("net.hops_per_pkt", ratio(hops, sent));
  r.set("net.sp_bytes_per_pkt", ratio(sp_bytes, sent));
  r.set("net.deferred_frac", ratio(deferred, sent));
  r.set("net.agg_ns_per_report",
        ratio(tr.total_ns("net.agg.report") + tr.total_ns("net.agg.flush"),
              static_cast<double>(tr.count("net.agg.report"))));
  r.set("net.agg_compression", ratio(leaf_reports, root_records));
  r.set("net.place_ms_p50", median(place_ms));
  r.set("net.replace_scope_frac",
        ratio(replace_scope,
              static_cast<double>(replace_events) * topo.switches().size()));
  r.set("net.reconverge_ms_p50", percentile(reconverge_ms, 0.50));
  r.set("net.reconverge_ms_p95", percentile(reconverge_ms, 0.95));
  r.set("core.switch_ns_per_hop", std::max(0.0, switch_ns_per_hop));
  r.set("intent.install_ms_p50", percentile(deploy_ms, 0.50));
  r.set("intent.install_ms_p95", percentile(deploy_ms, 0.95));
  r.set("analyzer.ns_per_report",
        ratio(tr.total_ns("analyzer.report"),
              static_cast<double>(tr.count("analyzer.report"))));
  r.set("analyzer.reports_per_kpkt", ratio(1000.0 * root_records, sent));

  r.prop("packets_per_pass", static_cast<double>(chunk_pkts));
  r.prop("input_chunks", static_cast<double>(chunks));
  r.prop("windows_per_pass", static_cast<double>(crossings.size() + 1));
  r.prop("packets_per_window", static_cast<double>(kPktsPerWindow));
  r.prop("churn_events_per_pass", static_cast<double>(crossings.size()));
  r.prop("deploy_cycles_per_pass", static_cast<double>(cycles));
  r.prop("hops_per_pkt", ratio(hops, sent));
  r.prop("leaf_reports_per_kpkt", ratio(1000.0 * leaf_reports, sent));
  r.prop("root_records_per_kpkt", ratio(1000.0 * root_records, sent));
  r.prop("install_ms_p50", percentile(deploy_ms, 0.50));
  r.prop("install_ms_p95", percentile(deploy_ms, 0.95));
  r.prop("reconverge_ms_p50", percentile(reconverge_ms, 0.50));
  r.prop("reconverge_ms_p95", percentile(reconverge_ms, 0.95));
  r.prop("reconverge_samples", static_cast<double>(reconverge_ms.size()));
  r.prop("dropped_packets", static_cast<double>(dropped));
  if (o.trace) tr.write(o.data_dir + "/spans-fleet-k16.json");
}

}  // namespace perfbench
