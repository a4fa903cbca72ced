// IngestPump: drives any Source into the sharded runtime's demux/ring path.
//
// The pump owns the ingest hot loop: pull a burst into a buffer sized once
// at run() start, hand each packet to ShardedRuntime::process (which stages
// per flow bucket and bulk-pushes into the worker rings — backpressure is
// absorbed there and counted as ring stalls), and mirror per-source
// telemetry.  The steady-state loop performs no heap allocation: the burst
// buffer and every metric handle are resolved before the first pull
// (tests/test_hotpath_alloc.cpp brackets the loop with an operator-new
// interposer).
//
// Live sources that would block are waited out with a bounded sleep taken
// from Source::ns_until_ready() (paced replays report the exact gap to the
// next scheduled packet); wait rounds are counted, so an operator can see a
// starved source in the metrics.
//
// Exported series (all labeled {source=<name>}; docs/ingest.md):
//   newton_ingest_packets_total / _bytes_total      parsed + forwarded
//   newton_ingest_frames_total                      raw frames seen
//   newton_ingest_skipped_total{reason=vlan|ipv6|other}
//   newton_ingest_dropped_total                     kernel-queue losses
//   newton_ingest_would_block_total                 empty pull rounds
//   newton_ingest_paced_packets_total               schedule-released packets
//   newton_ingest_pacing_lag_us_total (ReplaySource) cumulative release lag
#pragma once

#include <cstdint>
#include <vector>

#include "ingest/source.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"

namespace newton::ingest {

struct PumpOptions {
  std::size_t burst = 64;  // packets per pull; mirrors RuntimeOptions::burst
  // Registry receiving the per-source series; nullptr = process global.
  telemetry::Registry* registry = nullptr;
  // Upper bound for one would-block sleep.  Keeps the pump responsive to a
  // source whose readiness estimate is coarse.
  uint64_t max_wait_us = 1'000;
  // Stop after this many forwarded packets (0 = until the source is done) —
  // the budget for endless live sockets.
  uint64_t max_packets = 0;
};

struct PumpStats {
  uint64_t packets = 0;      // forwarded into the runtime
  uint64_t bytes = 0;
  uint64_t batches = 0;      // non-empty pulls
  uint64_t would_block = 0;  // empty pulls on a live (not-done) source
  uint64_t wait_ns = 0;      // sleep requested across those pulls
  SourceStats source;        // the source's own accounting at finish
};

class IngestPump {
 public:
  explicit IngestPump(ShardedRuntime& rt, PumpOptions opts = {});

  // Run the source to completion (or to opts.max_packets).  The runtime is
  // left running: callers finish() it when the last source is drained, so
  // several sources can feed one runtime back to back.
  PumpStats run(Source& src);

 private:
  ShardedRuntime* rt_;
  PumpOptions opts_;
};

}  // namespace newton::ingest
