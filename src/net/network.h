// Multi-switch network simulator: one Newton switch per topology switch
// node, packets forwarded along routed paths, the SP header piggybacked
// between hops (§5.1).  Counts the CQE bandwidth overhead and hands
// unfinished executions to the deferred handler (software analyzer).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/newton_switch.h"
#include "net/topology.h"
#include "packet/flow_key.h"

namespace newton {

namespace telemetry {
class Counter;
}

class Network {
 public:
  Network(Topology topo, std::size_t stages_per_switch, ReportSink* sink,
          std::size_t bank_registers = kStateBankRegisters);

  Topology& topo() { return topo_; }
  const Topology& topo() const { return topo_; }
  NewtonSwitch& sw(int node) { return *switches_.at(node); }
  bool has_switch(int node) const { return switches_.contains(node); }
  std::size_t stages_per_switch() const { return stages_per_switch_; }

  struct SendStats {
    std::size_t hops = 0;        // switches traversed
    std::size_t sp_link_bytes = 0;  // SP header bytes carried on links
    bool delivered = false;
    bool deferred = false;       // execution continued in software
  };

  // The switches a packet from `src` to `dst` with `flow_hash` crosses, in
  // order: switches_on(route(...)) answered from the route tables; nullopt
  // if no live path exists.
  std::optional<std::vector<int>> path(int src, int dst, uint32_t flow_hash);

  // Route and forward one packet host-to-host.  The SP header produced by a
  // hop is consumed by the next hop hosting the successor slice; if the
  // packet reaches the egress edge with the query unfinished, the deferred
  // handler is invoked (§5.2).
  SendStats send(const Packet& pkt, int src_host, int dst_host);

  // Forward along an explicit switch path (the paper's line-testbed mode).
  // Every hop first rolls its window to the latest timestamp the network
  // has sent (NewtonSwitch::roll_to), so a late packet folds into the same
  // window at every hop, as on one switch (docs/fleet.md "Hops").
  SendStats send_along(const Packet& pkt, const std::vector<int>& sw_path);

  // The handler runs while send_along walks its reused header stack, so it
  // must not send through this network.
  void set_deferred_handler(
      std::function<void(const Packet&, const SpHeader&)> h) {
    deferred_ = std::move(h);
  }

  uint64_t packets_sent() const { return packets_sent_; }
  // Packets with no live route (network partitioned by failures).
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t total_sp_link_bytes() const { return sp_link_bytes_; }
  uint64_t total_payload_link_bytes() const { return payload_link_bytes_; }

  struct RouteStats {
    uint64_t tables_built = 0;  // destination distance tables (BFS runs)
    uint64_t rebuilds = 0;      // live-link rebuilds (topology changes seen)
  };
  const RouteStats& route_stats() const { return route_stats_; }

 private:
  // Route tables (docs/fleet.md "Routing").  The live links are kept as a
  // CSR (node n's live neighbours, ascending, are nbr_[off_[n], off_[n+1]))
  // rebuilt whenever topo_.generation moves; a BFS distance table per
  // destination key is built on first use after that.
  void sync_links();
  const std::vector<int>& dist_table(int key);
  // Fills sw_path_ with the switch path; false if dst is unreachable.
  bool route_switches(int src, int dst, uint32_t flow_hash);
  telemetry::Counter& slice_traversals(std::size_t slice);

  Topology topo_;
  std::size_t stages_per_switch_;
  std::map<int, std::unique_ptr<NewtonSwitch>> switches_;
  std::function<void(const Packet&, const SpHeader&)> deferred_;
  uint64_t packets_sent_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t sp_link_bytes_ = 0;
  uint64_t payload_link_bytes_ = 0;
  uint64_t latest_ts_ns_ = 0;  // largest packet timestamp sent so far

  uint64_t links_gen_ = ~uint64_t{0};  // topo_.generation the CSR reflects
  std::vector<uint32_t> off_;
  std::vector<int> nbr_;
  std::vector<uint8_t> is_host_;
  std::vector<std::vector<int>> dist_;  // by key node; -1 = unreachable
  std::vector<uint64_t> dist_gen_;      // links_gen_ dist_[key] was built at
  std::vector<int> bfs_queue_;
  std::vector<int> candidates_;
  std::vector<int> sw_path_;
  // send_along's SP-header stack: the headers arriving at a hop and those
  // leaving it, swapped per hop.
  std::vector<SpHeader> sps_, next_sps_;
  RouteStats route_stats_;
  // newton_cqe_slice_traversals_total series, resolved once per slice.
  std::vector<telemetry::Counter*> slice_counters_;
};

}  // namespace newton
