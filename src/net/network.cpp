#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.h"

namespace newton {

namespace {

struct NetCounters {
  telemetry::Counter& hops;
  telemetry::Counter& sp_bytes;
  telemetry::Counter& deferred;
  telemetry::Counter& dropped;
  telemetry::Counter& tables_built;
  telemetry::Counter& rebuilds;

  static NetCounters& get() {
    auto& reg = telemetry::Registry::global();
    static NetCounters c{
        reg.counter("newton_net_hops_total",
                    "Switch hops traversed by forwarded packets"),
        reg.counter("newton_cqe_sp_link_bytes_total",
                    "SP (result snapshot) header bytes carried on links"),
        reg.counter("newton_cqe_deferred_total",
                    "Executions handed to the software deferred handler at "
                    "the egress edge"),
        reg.counter("newton_net_dropped_packets_total",
                    "Packets dropped for lack of a live route (the network "
                    "was partitioned by link/switch failures)"),
        reg.counter("newton_net_route_tables_built_total",
                    "Per-destination route distance tables built (one BFS "
                    "over the live links each)"),
        reg.counter("newton_net_route_rebuilds_total",
                    "Live-link rebuilds of the route tables, one per "
                    "topology change seen by a send")};
    return c;
  }
};

}  // namespace

Network::Network(Topology topo, std::size_t stages_per_switch,
                 ReportSink* sink, std::size_t bank_registers)
    : topo_(std::move(topo)), stages_per_switch_(stages_per_switch) {
  for (int s : topo_.switches())
    switches_[s] = std::make_unique<NewtonSwitch>(
        static_cast<uint32_t>(s), stages_per_switch, sink, bank_registers,
        /*latency_seed=*/42 + static_cast<uint32_t>(s));
}

// Per-slice CQE traversal series: how many times slice d of any deployed
// query executed on some hop.  Slice 0 executions are inferred from a hop
// emitting a fresh SP header (or finishing a single-slice execution);
// slices > 0 from a hop consuming the SP header addressed to them.
telemetry::Counter& Network::slice_traversals(std::size_t slice) {
  if (slice >= slice_counters_.size()) slice_counters_.resize(slice + 1);
  telemetry::Counter*& c = slice_counters_[slice];
  if (c == nullptr)
    c = &telemetry::Registry::global().counter(
        "newton_cqe_slice_traversals_total",
        "CQE slice executions by slice index, across all switches",
        {{"slice", std::to_string(slice)}});
  return *c;
}

void Network::sync_links() {
  if (links_gen_ == topo_.generation) return;
  links_gen_ = topo_.generation;
  const std::size_t n = topo_.nodes.size();
  off_.assign(n + 1, 0);
  nbr_.clear();
  is_host_.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    is_host_[u] = topo_.nodes[u].type == NodeType::Host;
    for (int v : topo_.adj[u])
      if (topo_.link_up(static_cast<int>(u), v)) nbr_.push_back(v);
    off_[u + 1] = static_cast<uint32_t>(nbr_.size());
  }
  // Drop every distance table: a stamp that no longer matches links_gen_
  // marks it stale, and its storage is reused by the next build.
  dist_.resize(n);
  dist_gen_.assign(n, ~uint64_t{0});
  ++route_stats_.rebuilds;
  NetCounters::get().rebuilds.add();
}

// Hop distances to `key` over the live links, as route()'s BFS computes
// them: hosts other than the key never transit, so they stay -1.
const std::vector<int>& Network::dist_table(int key) {
  std::vector<int>& dist = dist_[key];
  if (dist_gen_[key] == links_gen_) return dist;
  dist.assign(topo_.nodes.size(), -1);
  dist[key] = 0;
  bfs_queue_.assign(1, key);
  for (std::size_t i = 0; i < bfs_queue_.size(); ++i) {
    const int u = bfs_queue_[i];
    for (uint32_t e = off_[u]; e < off_[u + 1]; ++e) {
      const int v = nbr_[e];
      if (is_host_[v] || dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      bfs_queue_.push_back(v);
    }
  }
  dist_gen_[key] = links_gen_;
  ++route_stats_.tables_built;
  NetCounters::get().tables_built.add();
  return dist;
}

// Walks the same path route(topo_, src, dst, flow_hash) returns, keeping
// only its switches: candidates are the live neighbours one hop closer, in
// ascending node order, and the ECMP pick hashes the path length so far.
bool Network::route_switches(int src, int dst, uint32_t flow_hash) {
  const int n = static_cast<int>(topo_.nodes.size());
  if (src < 0 || src >= n || dst < 0 || dst >= n)
    throw std::out_of_range("Network: route endpoint is not a node");
  sync_links();
  sw_path_.clear();
  if (src == dst) {
    if (!is_host_[src]) sw_path_.push_back(src);
    return true;
  }
  // A host with one live uplink reaches everything through that switch, so
  // it shares the switch's table, one hop further out.
  int key = dst;
  int shift = 0;
  if (is_host_[dst] && off_[dst + 1] - off_[dst] == 1 &&
      !is_host_[nbr_[off_[dst]]]) {
    key = nbr_[off_[dst]];
    shift = 1;
  }
  const std::vector<int>& table = dist_table(key);
  const auto dist = [&](int v) {
    if (v == dst) return 0;
    return table[v] < 0 ? -1 : table[v] + shift;
  };

  // A source host is not in the table (hosts do not transit): it sits one
  // hop beyond its closest live neighbour.
  int d = -1;
  if (is_host_[src]) {
    for (uint32_t e = off_[src]; e < off_[src + 1]; ++e) {
      const int dv = dist(nbr_[e]);
      if (dv >= 0 && (d < 0 || dv + 1 < d)) d = dv + 1;
    }
  } else {
    d = dist(src);
  }
  if (d < 0) return false;

  if (!is_host_[src]) sw_path_.push_back(src);
  uint32_t hops = 1;  // nodes on the path so far, src included
  for (int cur = src; cur != dst; --d, ++hops) {
    candidates_.clear();
    for (uint32_t e = off_[cur]; e < off_[cur + 1]; ++e)
      if (dist(nbr_[e]) == d - 1) candidates_.push_back(nbr_[e]);
    cur = candidates_[(flow_hash + hops * 0x9e3779b9u) % candidates_.size()];
    if (!is_host_[cur]) sw_path_.push_back(cur);
  }
  return true;
}

std::optional<std::vector<int>> Network::path(int src, int dst,
                                              uint32_t flow_hash) {
  if (!route_switches(src, dst, flow_hash)) return std::nullopt;
  return sw_path_;
}

Network::SendStats Network::send(const Packet& pkt, int src_host,
                                 int dst_host) {
  const uint32_t fh = static_cast<uint32_t>(
      FiveTupleHash{}(FiveTuple::of(pkt)));
  if (!route_switches(src_host, dst_host, fh)) {
    ++packets_dropped_;
    NetCounters::get().dropped.add();
    return {};
  }
  return send_along(pkt, sw_path_);
}

Network::SendStats Network::send_along(const Packet& pkt,
                                       const std::vector<int>& sw_path) {
  SendStats st;
  NetCounters& tc = NetCounters::get();
  ++packets_sent_;
  latest_ts_ns_ = std::max(latest_ts_ns_, pkt.ts_ns);
  // Every concurrent sliced query carries its own SP header, so a packet
  // that activates several queries at the ingress edge hauls a small header
  // stack hop to hop (each header is 12 wire bytes on every link).  The
  // stack lives in two reused buffers: sps_ arrives at a hop, next_sps_
  // leaves it.
  sps_.clear();
  for (int node : sw_path) {
    ++st.hops;
    tc.hops.add();
    auto& sw = *switches_.at(node);
    sw.roll_to(latest_ts_ns_);
    next_sps_.clear();
    if (sps_.empty()) {
      // No executions in flight: one pass.  At the ingress edge it may start
      // slice 0 of every activated query; elsewhere it starts none (slice-0
      // newton_init entries match only at the ingress edge), but it still
      // runs the switch's whole-query installs and counts the packet.
      const auto out =
          sw.process(pkt, std::nullopt, /*at_ingress_edge=*/st.hops == 1);
      for (const SpHeader& sp : out.sp_out) {
        slice_traversals(0).add();
        next_sps_.push_back(sp);
      }
    } else {
      // Resume each carried execution independently — the PHV has only two
      // metadata sets, so concurrent resumptions cannot share a pipeline
      // pass.  Headers this switch hosts no slice for are carried through
      // untouched.  The packet itself is dispatched by newton_init once per
      // hop, on the first pass; the other passes only resume their header's
      // slice.
      bool dispatch_init = true;
      for (const SpHeader& sp : sps_) {
        // The snapshot crosses the link as 12 wire bytes; encode/decode at
        // each hop exercises the real SP codec end to end.
        const auto wire = sp_encode(sp);
        const auto sp_in = sp_decode(wire.data(), wire.size());
        const auto out = sw.process(pkt, sp_in, /*at_ingress_edge=*/false,
                                    dispatch_init);
        dispatch_init = false;
        if (out.sp_consumed) {
          // This hop hosted and ran the slice the header addressed; no
          // header back means the final slice ran (or the query stopped
          // itself).
          slice_traversals(sp_in->next_slice).add();
          next_sps_.insert(next_sps_.end(), out.sp_out.begin(),
                           out.sp_out.end());
        } else {
          next_sps_.push_back(sp);  // no successor slice here; keep carrying
        }
      }
    }
    sps_.swap(next_sps_);
    const std::size_t sp_bytes = kSpHeaderBytes * sps_.size();
    if (sp_bytes) {
      st.sp_link_bytes += sp_bytes;
      sp_link_bytes_ += sp_bytes;
      tc.sp_bytes.add(sp_bytes);
    }
    payload_link_bytes_ += pkt.wire_len;
  }
  st.delivered = true;
  for (const SpHeader& sp : sps_) {
    // Egress with an unfinished query: switches strip the SP header before
    // the packet reaches end hosts; the snapshot is mirrored to software.
    st.deferred = true;
    tc.deferred.add();
    if (deferred_) deferred_(pkt, sp);
  }
  return st;
}

}  // namespace newton
