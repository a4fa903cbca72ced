// Exact reference interpreter for differential scenarios: evaluates the
// scenario's query chains with plain maps/sets (no sketches, no RMT
// pipeline) under the same windowing and op-schedule semantics the data
// plane uses.  Its per-window passing keysets are the oracle the pipeline
// executions are compared against (docs/difftest.md, "Oracle semantics").
#pragma once

#include <map>
#include <utility>

#include "analyzer/ground_truth.h"
#include "core/window.h"
#include "difftest/scenario.h"

namespace newton::difftest {

// Per-window detected keysets of one execution, keyed by (query index,
// branch index).  All executors — reference, single-switch, runtime, CQE,
// fault — reduce to this shape before comparison.
struct ExecResult {
  std::map<std::pair<std::size_t, std::size_t>, std::map<uint64_t, KeySet>>
      detected;
  // Union over windows of every key that reached a reduce aggregation
  // (reference executor only): the negative universe used to scale the
  // sketch-noise allowance of the oracle comparison.
  std::map<std::pair<std::size_t, std::size_t>, KeySet> reduce_universe;

  // Merged end-of-window register state per (query, branch) per window
  // (sharded-runtime executors only).  The window merge folds per-worker
  // banks by the slice's ALU op (sums add, bloom bits or), so two runs of
  // the same scenario at different shard counts must agree bit for bit —
  // this is the axis that exercises the merge itself.
  std::map<std::pair<std::size_t, std::size_t>,
           std::map<uint64_t, std::vector<uint32_t>>>
      state;

  // Packets folded into a later open window (core/window.h).  Every
  // execution that owns one clock over the whole trace counts the same.
  uint64_t late_packets = 0;

  // Union over windows of one (query, branch)'s detected keys.
  KeySet passing_union(std::size_t query, std::size_t branch) const;
};

// The window schedule every executor shares: replay `t` through a window
// clock of `window_ns`.  `at_roll(i)` runs before packet i whenever i rolls
// the clock (ops scheduled at or before i apply there, as at the runtime's
// barrier), then `on_packet(i, window)` runs with the clock's open window;
// a late packet gets the open window, never its own.
struct WindowReplay {
  uint64_t last_window = 0;  // the clock's open window after the trace
  uint64_t late_packets = 0;
};
template <class AtRoll, class OnPacket>
WindowReplay replay_windows(const Trace& t, uint64_t window_ns,
                            AtRoll&& at_roll, OnPacket&& on_packet) {
  WindowClock clock(window_ns);
  WindowReplay out;
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    const uint64_t ts = t.packets[i].ts_ns;
    if (clock.rolls(ts)) {
      at_roll(i);
      clock.open(ts);
    }
    out.late_packets += clock.late(ts);
    on_packet(i, clock.window());
  }
  out.last_window = clock.window();
  return out;
}

// Evaluate the scenario exactly over `t` (which must be s.trace.build(), or
// a caller-cached copy of it).  Ops apply at the first window roll at or
// after their packet index; ops at packet 0 apply before the stream starts;
// per-window state clears at every roll; a late packet counts in the open
// window — the same semantics every pipeline executor observes.
ExecResult run_reference(const Scenario& s, const Trace& t);

}  // namespace newton::difftest
