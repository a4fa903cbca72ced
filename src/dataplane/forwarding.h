// L3 forwarding substrate (the switch.p4 role in §6.1): a longest-prefix-
// match table with runtime rule operations, plus the reboot model that
// separates Newton from Sonata in Figure 10.
//
// Newton reconfigures queries with table rules while this forwarding plane
// keeps running.  Sonata compiles queries into the P4 program, so an update
// reloads the program: the switch forwards nothing during the reboot, and
// afterwards the controller must restore every forwarding entry before the
// corresponding traffic flows again.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>

#include "packet/packet.h"

namespace newton {

// Longest-prefix-match IPv4 table.
class LpmTable {
 public:
  // Insert/overwrite a route; prefix_len in [0, 32].
  void insert(uint32_t prefix, uint8_t prefix_len, uint32_t port);
  bool remove(uint32_t prefix, uint8_t prefix_len);
  // Longest matching route's port, or nullopt.
  std::optional<uint32_t> lookup(uint32_t ip) const;
  std::size_t size() const;

 private:
  // Per prefix length: masked prefix -> port.
  std::array<std::map<uint32_t, uint32_t>, 33> routes_;
};

// A forwarding plane with Sonata-style reload semantics.  Time is the
// caller's clock (ns).  `reload(t, entries)` models a P4-program swap at
// time t: the pipeline is dark for the reboot duration, then entries are
// restored one by one; a packet forwards only if the switch is up AND the
// route covering it has been restored already.
struct ReloadModelParams {
  double reboot_seconds = 7.5;
  double per_entry_restore_ms = 0.45;
};

class ReloadableForwarder {
 public:
  ReloadableForwarder() = default;

  LpmTable& routes() { return table_; }
  const LpmTable& routes() const { return table_; }

  // Begin a program reload at time `t_ns`; all current routes re-install
  // sequentially after the reboot.
  void reload(uint64_t t_ns, const ReloadModelParams& params = ReloadModelParams{});

  // Forward a packet at time `t_ns`: returns the egress port, or nullopt
  // if dropped (no route, or mid-reload).
  std::optional<uint32_t> forward(const Packet& pkt, uint64_t t_ns);

  uint64_t reload_end_ns() const { return reload_end_ns_; }
  uint64_t packets_dropped() const { return dropped_; }
  uint64_t packets_forwarded() const { return forwarded_; }

 private:
  LpmTable table_;
  uint64_t reload_start_ns_ = 0;
  uint64_t reload_end_ns_ = 0;   // reboot complete + all entries restored
  uint64_t reboot_done_ns_ = 0;  // reboot complete, restore begins
  uint64_t per_entry_ns_ = 0;
  std::size_t entries_at_reload_ = 0;
  uint64_t dropped_ = 0;
  uint64_t forwarded_ = 0;
};

}  // namespace newton
