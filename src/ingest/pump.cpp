#include "ingest/pump.h"

#include <algorithm>
#include <ctime>

namespace newton::ingest {
namespace {

void sleep_ns(uint64_t ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000ull);
  nanosleep(&ts, nullptr);
}

}  // namespace

IngestPump::IngestPump(ShardedRuntime& rt, PumpOptions opts)
    : rt_(&rt), opts_(opts) {
  if (opts_.burst == 0) opts_.burst = 1;
}

PumpStats IngestPump::run(Source& src) {
  auto& reg = opts_.registry ? *opts_.registry : telemetry::Registry::global();
  const telemetry::Labels by_src{{"source", src.name()}};
  // Handle resolution and the burst buffer are the only allocations; after
  // this point the loop is allocation-free.
  auto& m_packets = reg.counter("newton_ingest_packets_total",
                                "packets parsed and forwarded", by_src);
  auto& m_bytes = reg.counter("newton_ingest_bytes_total",
                              "wire bytes of forwarded packets", by_src);
  auto& m_frames = reg.counter("newton_ingest_frames_total",
                               "raw frames seen by the source", by_src);
  auto& m_skip_vlan =
      reg.counter("newton_ingest_skipped_total", "frames skipped by reason",
                  {{"source", src.name()}, {"reason", "vlan"}});
  auto& m_skip_ipv6 =
      reg.counter("newton_ingest_skipped_total", "frames skipped by reason",
                  {{"source", src.name()}, {"reason", "ipv6"}});
  auto& m_skip_other =
      reg.counter("newton_ingest_skipped_total", "frames skipped by reason",
                  {{"source", src.name()}, {"reason", "other"}});
  auto& m_dropped = reg.counter("newton_ingest_dropped_total",
                                "frames lost before the source", by_src);
  auto& m_batches = reg.counter("newton_ingest_batches_total",
                                "non-empty pull bursts", by_src);
  auto& m_block = reg.counter("newton_ingest_would_block_total",
                              "empty pulls on a live source", by_src);
  auto& m_paced = reg.counter("newton_ingest_paced_packets_total",
                              "packets released on a replay schedule",
                              by_src);
  auto& m_lag = reg.counter("newton_ingest_pacing_lag_us_total",
                            "cumulative release lag behind the schedule",
                            by_src);

  std::vector<Packet> buf(opts_.burst);
  PumpStats ps;
  SourceStats flushed;  // source totals already mirrored into the registry

  auto mirror = [&] {
    const SourceStats& s = src.stats();
    m_packets.add(s.packets - flushed.packets);
    m_bytes.add(s.bytes - flushed.bytes);
    m_frames.add(s.frames - flushed.frames);
    m_skip_vlan.add(s.skipped_vlan - flushed.skipped_vlan);
    m_skip_ipv6.add(s.skipped_ipv6 - flushed.skipped_ipv6);
    m_skip_other.add(s.skipped_other - flushed.skipped_other);
    m_dropped.add(s.dropped - flushed.dropped);
    m_paced.add(s.paced_packets - flushed.paced_packets);
    m_lag.add((s.pacing_lag_ns_total - flushed.pacing_lag_ns_total) / 1'000);
    flushed = s;
  };

  while (!src.done()) {
    const std::size_t want =
        opts_.max_packets == 0
            ? buf.size()
            : std::min<std::size_t>(buf.size(),
                                    opts_.max_packets - ps.packets);
    const std::size_t n = src.pull(buf.data(), want);
    if (n == 0) {
      if (src.done()) break;
      ++ps.would_block;
      m_block.add();
      // Wait exactly as long as the source says (paced replays), capped so
      // a coarse estimate cannot stall the pump.  The bound applies to BOTH
      // arms: a zero hint ("retry whenever") waits the full bound, and any
      // non-zero hint — however far in the future the source schedules its
      // next packet — is clamped to it, so the pump re-polls (and honors
      // done()/max_packets) within max_wait_us no matter what the source
      // reports.
      const uint64_t bound = opts_.max_wait_us * 1'000;
      const uint64_t hint = src.ns_until_ready();
      const uint64_t wait = hint == 0 ? bound : std::min(hint, bound);
      ps.wait_ns += wait;
      sleep_ns(wait);
      continue;
    }
    ++ps.batches;
    m_batches.add();
    for (std::size_t i = 0; i < n; ++i) {
      rt_->process(buf[i]);
      ps.bytes += buf[i].wire_len;
    }
    ps.packets += n;
    mirror();
    if (opts_.max_packets != 0 && ps.packets >= opts_.max_packets) break;
  }
  mirror();
  ps.source = src.stats();
  return ps;
}

}  // namespace newton::ingest
