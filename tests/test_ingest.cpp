// Live ingestion subsystem (src/ingest/): source contracts, and the
// equivalence pins that make the streaming path trustworthy — a pcap fed
// through PcapFileSource (and through ReplaySource at rate=inf) must produce
// byte-identical report streams to processing the same capture in memory,
// at 1 and at 4 shards.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/newton_switch.h"
#include "ingest/pcap_source.h"
#include "ingest/pump.h"
#include "ingest/replay_source.h"
#include "ingest/socket_source.h"
#include "ingest/trace_source.h"
#include "packet/wire.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"
#include "trace/attacks.h"
#include "trace/pcap.h"
#include "trace/trace_gen.h"

namespace newton {
namespace {

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

auto rec_key(const ReportRecord& r) {
  return std::tuple(r.qid, r.ts_ns, r.oper_keys, r.hash_result,
                    r.state_result, r.global_result, r.switch_id);
}

std::vector<ReportRecord> sorted(std::vector<ReportRecord> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return rec_key(a) < rec_key(b);
  });
  return v;
}

// A stateful dip-keyed reduce plus a stateless per-SYN exporter: together
// they exercise the sketch path and the every-packet report path.
std::vector<Query> test_queries() {
  std::vector<Query> qs;
  qs.push_back(QueryBuilder("udp_pkts_per_dst")
                   .sketch(2, 8192)
                   .window_ms(100)
                   .filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoUdp))
                   .map({Field::DstIp})
                   .reduce({Field::DstIp}, Agg::Sum)
                   .when(Cmp::Ge, 100)
                   .build());
  qs.push_back(QueryBuilder("syn_export")
                   .filter(Predicate{}
                               .where(Field::Proto, Cmp::Eq, kProtoTcp)
                               .where(Field::TcpFlags, Cmp::Eq, kTcpSyn))
                   .map({Field::SrcIp, Field::DstIp})
                   .build());
  return qs;
}

Trace attack_trace(uint32_t seed) {
  TraceProfile p = caida_like(seed);
  p.num_flows = 300;
  Trace t = generate_trace(p);
  std::mt19937 rng(seed + 5);
  inject_udp_flood(t, ipv4(172, 16, 9, 9), 120, 2, 250'000'000, rng);
  t.sort_by_time();
  return t;
}

struct RunResult {
  std::vector<ReportRecord> records;
  KeySet detected;
  ingest::PumpStats pump;
};

// Run the queries over a source (or, when src == nullptr, over the trace
// directly via ShardedRuntime::run) and collect the raw report stream.
RunResult run_queries(ingest::Source* src, const Trace* t, std::size_t shards) {
  RunResult out;
  Analyzer an;
  ReportBuffer buf;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = shards;
  o.shard_key = ShardKey::on({Field::DstIp});  // affine for the reduce
  ShardedRuntime rt(sw, o, &an);
  rt.set_report_sink(&buf);
  for (const Query& q : test_queries()) rt.install(q);
  if (src != nullptr) {
    ingest::IngestPump pump(rt);
    out.pump = pump.run(*src);
  } else {
    rt.run(*t);
  }
  rt.finish();
  out.records = sorted(buf.records());
  out.detected = an.detected("udp_pkts_per_dst");
  return out;
}

TEST(TraceSource, StreamsPacketsInOrderWithStats) {
  const Trace t = attack_trace(7);
  ingest::TraceSource src(t);
  std::vector<Packet> got;
  Packet buf[17];
  while (!src.done()) {
    const std::size_t n = src.pull(buf, 17);
    for (std::size_t i = 0; i < n; ++i) got.push_back(buf[i]);
  }
  ASSERT_EQ(got.size(), t.size());
  uint64_t bytes = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ts_ns, t.packets[i].ts_ns);
    EXPECT_EQ(got[i].sip(), t.packets[i].sip());
    bytes += t.packets[i].wire_len;
  }
  EXPECT_EQ(src.stats().packets, t.size());
  EXPECT_EQ(src.stats().frames, t.size());
  EXPECT_EQ(src.stats().bytes, bytes);
  EXPECT_EQ(src.stats().skipped(), 0u);
}

// Satellite 3: the streaming file path and the unpaced replay wrapper are
// byte-identical to the in-memory run, at 1 and 4 shards.
TEST(IngestEquivalence, PcapAndInfiniteReplayMatchInMemory) {
  const std::string path = tmp_path("newton_test_ingest_eq.pcap");
  save_pcap(attack_trace(23), path);
  // The nanosecond-magic container round-trips timestamps exactly, so the
  // loaded trace is what every source-based run parses.
  const Trace t = load_pcap(path);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(shards);
    const RunResult ref = run_queries(nullptr, &t, shards);
    ASSERT_FALSE(ref.records.empty());
    ASSERT_FALSE(ref.detected.empty());

    ingest::PcapFileSource file_src(path);
    const RunResult via_file = run_queries(&file_src, nullptr, shards);

    ingest::PcapFileSource inner(path);
    ingest::ReplaySource replay(inner, {.rate = 0.0});  // rate=inf: unpaced
    const RunResult via_replay = run_queries(&replay, nullptr, shards);

    for (const RunResult* r : {&via_file, &via_replay}) {
      ASSERT_EQ(r->records.size(), ref.records.size());
      for (std::size_t i = 0; i < ref.records.size(); ++i)
        ASSERT_EQ(rec_key(r->records[i]), rec_key(ref.records[i]))
            << "record " << i;
      EXPECT_EQ(r->detected, ref.detected);
      EXPECT_EQ(r->pump.packets, t.size());
    }
    EXPECT_EQ(via_replay.pump.source.paced_packets, 0u);
  }
  std::remove(path.c_str());
}

TEST(ReplaySource, PacedReplayKeepsOrderAndAccountsLag) {
  Trace t;
  for (std::size_t i = 0; i < 50; ++i)
    t.packets.push_back(make_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2),
                                    1000, 80, kProtoUdp, 0, 64,
                                    i * 1'000'000));  // 1 ms apart
  ingest::TraceSource inner(t);
  // 50 ms of capture at 500x -> ~0.1 ms wall clock; fast but still paced.
  ingest::ReplaySource src(inner, {.rate = 500.0});

  std::vector<Packet> got;
  Packet buf[8];
  while (!src.done()) {
    const std::size_t n = src.pull(buf, 8);
    if (n == 0) {
      const uint64_t wait = src.ns_until_ready();
      if (wait > 0) {
        const timespec ts{0, static_cast<long>(std::min<uint64_t>(
                                 wait, 1'000'000))};
        nanosleep(&ts, nullptr);
      }
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) got.push_back(buf[i]);
  }
  ASSERT_EQ(got.size(), t.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].ts_ns, t.packets[i].ts_ns);  // capture stamps survive
  EXPECT_EQ(src.stats().paced_packets, t.size());
  EXPECT_GE(src.stats().pacing_lag_ns_max, src.stats().pacing_lag_ns_total /
                                               std::max<uint64_t>(
                                                   src.stats().paced_packets,
                                                   1));
}

TEST(SocketSource, UnixDatagramsWithSequenceTimestamps) {
  const std::string sock_path = tmp_path("newton_test_ingest.sock");
  std::remove(sock_path.c_str());
  ingest::SocketOptions opts;
  opts.unix_path = sock_path;
  opts.timestamp = ingest::SocketOptions::Timestamp::kSequence;
  opts.sequence_start_ns = 1'000;
  opts.sequence_step_ns = 500;
  ingest::SocketSource src(opts);
  ASSERT_EQ(src.address(), sock_path);

  // Feeder: three IPv4 frames, one VLAN-tagged frame (skipped), one
  // zero-length datagram (end-of-stream sentinel).
  const int fd = socket(AF_UNIX, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                sock_path.c_str());
  auto send_frame = [&](const std::vector<uint8_t>& f) {
    ASSERT_EQ(sendto(fd, f.data(), f.size(), 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
              static_cast<ssize_t>(f.size()));
  };
  for (uint32_t i = 0; i < 3; ++i)
    send_frame(deparse_frame(make_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2),
                                         1000 + i, 80, kProtoTcp, kTcpSyn,
                                         64)));
  send_frame(wrap_vlan(
      deparse_frame(make_packet(1, 2, 3, 4, kProtoUdp, 0, 64)), 7));
  ASSERT_EQ(sendto(fd, "", 0, 0, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  close(fd);

  std::vector<Packet> got;
  Packet buf[16];
  while (!src.done()) {
    const std::size_t n = src.pull(buf, 16);
    for (std::size_t i = 0; i < n; ++i) got.push_back(buf[i]);
  }
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ts_ns, 1'000u + i * 500u);  // synthetic sequence clock
    EXPECT_EQ(got[i].sport(), 1000 + i);
  }
  EXPECT_EQ(src.stats().frames, 4u);
  EXPECT_EQ(src.stats().skipped_vlan, 1u);
  EXPECT_EQ(src.stats().skipped_ipv6, 0u);
  std::remove(sock_path.c_str());
}

// The pump's exported per-source counters mirror the source's accounting.
TEST(IngestPump, ExportsPerSourceTelemetry) {
  const Trace t = attack_trace(11);
  telemetry::Registry reg;
  Analyzer an;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = 2;
  o.shard_key = ShardKey::on({Field::DstIp});
  ShardedRuntime rt(sw, o, &an);
  for (const Query& q : test_queries()) rt.install(q);

  ingest::TraceSource src(t);
  ingest::PumpOptions po;
  po.registry = &reg;
  ingest::IngestPump pump(rt, po);
  const ingest::PumpStats ps = pump.run(src);
  rt.finish();

  EXPECT_EQ(ps.packets, t.size());
  const auto snap = reg.snapshot();
  const telemetry::Labels by_source{{"source", src.name()}};
  auto value_of = [&](const std::string& name) -> double {
    const telemetry::Sample* s = snap.find(name, by_source);
    return s == nullptr ? -1.0 : s->value;
  };
  EXPECT_EQ(value_of("newton_ingest_packets_total"),
            static_cast<double>(t.size()));
  EXPECT_EQ(value_of("newton_ingest_frames_total"),
            static_cast<double>(t.size()));
  EXPECT_EQ(value_of("newton_ingest_dropped_total"), 0.0);
}

// A live source that would-blocks a few rounds while advertising an
// absurdly distant readiness estimate before releasing its packets.
// Regression rig for the pump's sleep clamp: the sleep must be bounded by
// max_wait_us on BOTH arms of the hint handling, or this source parks the
// pump for an hour.
class HugeHintSource : public ingest::Source {
 public:
  HugeHintSource(std::vector<Packet> pkts, int blocks)
      : pkts_(std::move(pkts)), blocks_left_(blocks) {}

  std::size_t pull(Packet* out, std::size_t max) override {
    if (blocks_left_ > 0) {
      --blocks_left_;
      return 0;
    }
    std::size_t n = 0;
    while (n < max && next_ < pkts_.size()) {
      out[n] = pkts_[next_++];
      ++stats_.frames;
      ++stats_.packets;
      stats_.bytes += out[n].wire_len;
      ++n;
    }
    return n;
  }
  bool done() const override {
    return blocks_left_ <= 0 && next_ >= pkts_.size();
  }
  uint64_t ns_until_ready() const override {
    return 3'600'000'000'000ull;  // "ready in an hour"
  }
  std::string name() const override { return "huge_hint"; }

 private:
  std::vector<Packet> pkts_;
  std::size_t next_ = 0;
  int blocks_left_;
};

TEST(IngestPump, WouldBlockSleepIsClampedByMaxWait) {
  Trace t = attack_trace(13);
  t.packets.resize(std::min<std::size_t>(t.packets.size(), 500));
  HugeHintSource src(t.packets, /*blocks=*/3);

  Analyzer an;
  NewtonSwitch sw(1, 24, nullptr);
  ShardedRuntime rt(sw, {}, &an);
  ingest::PumpOptions po;
  po.max_wait_us = 200;  // responsiveness bound: 0.2 ms per wait round
  ingest::IngestPump pump(rt, po);

  const ingest::PumpStats ps = pump.run(src);
  rt.finish();

  EXPECT_EQ(ps.packets, t.packets.size());
  EXPECT_GE(ps.would_block, 3u);
  // Every wait is clamped to the bound; an unclamped hint would be hours.
  EXPECT_LE(ps.wait_ns, ps.would_block * po.max_wait_us * 1'000);
}

// An inner source whose readiness estimate stays bogus-huge even at EOF.
// ReplaySource must not forward that hint once the stream is done: the
// final burst has to drain and done() has to surface without the pump
// being parked on a dead source.
class BogusEofHintSource : public ingest::Source {
 public:
  explicit BogusEofHintSource(std::vector<Packet> pkts)
      : pkts_(std::move(pkts)) {}

  std::size_t pull(Packet* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && next_ < pkts_.size()) {
      out[n] = pkts_[next_++];
      ++stats_.frames;
      ++stats_.packets;
      stats_.bytes += out[n].wire_len;
      ++n;
    }
    return n;
  }
  bool done() const override { return next_ >= pkts_.size(); }
  uint64_t ns_until_ready() const override { return 3'600'000'000'000ull; }
  std::string name() const override { return "bogus_eof"; }

 private:
  std::vector<Packet> pkts_;
  std::size_t next_ = 0;
};

TEST(ReplaySource, DrainsToEofUnderPacingWithBogusInnerHints) {
  Trace t = attack_trace(17);
  t.packets.resize(std::min<std::size_t>(t.packets.size(), 400));
  BogusEofHintSource inner(t.packets);
  ingest::ReplayOptions ro;
  ro.rate = 1000.0;  // compress the capture schedule ~1000x
  ingest::ReplaySource src(inner, ro);

  Analyzer an;
  NewtonSwitch sw(1, 24, nullptr);
  ShardedRuntime rt(sw, {}, &an);
  ingest::PumpOptions po;
  po.max_wait_us = 200;
  ingest::IngestPump pump(rt, po);

  const ingest::PumpStats ps = pump.run(src);
  rt.finish();

  // Every buffered packet of the final burst must come out before done():
  // the paced buffer can never report ready-never while it still holds
  // undelivered packets.
  EXPECT_EQ(ps.packets, t.packets.size());
  EXPECT_TRUE(src.done());
  // After EOF the handshake must say "ready now", not echo the inner
  // source's stale hour-long estimate.
  EXPECT_EQ(src.ns_until_ready(), 0u);
  // The pump waited for the schedule and nothing more.  Each wait asks for
  // at most the gap to the next due packet, and a sleep never ends early,
  // so the waits before one release add up to at most that gap, plus one
  // clamped wait when the packet fell due between the pull and the hint.
  // Every release ends such a run of waits (one non-empty pull each).
  uint64_t first = UINT64_MAX, last = 0;
  for (const Packet& p : t.packets) {
    first = std::min(first, p.ts_ns);
    last = std::max(last, p.ts_ns);
  }
  const auto paced_span_ns =
      static_cast<uint64_t>(static_cast<double>(last - first) / ro.rate);
  EXPECT_LE(ps.wait_ns, paced_span_ns + ps.batches * po.max_wait_us * 1'000);
}

}  // namespace
}  // namespace newton
