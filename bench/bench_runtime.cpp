// Sharded-runtime throughput: packets/sec vs. shard count on a ~1M-packet
// trace, with q1/q3/q5 installed and 5-tuple flow sharding.
//
// Two metrics per shard count:
//   wall_pps   packets / wall-clock ns of the run.  On a single-core host
//              all threads serialize, so this stays roughly flat.
//   model_pps  packets / critical-path CPU ns, where the critical path is
//              max(demux thread CPU, busiest worker CPU).  With one core
//              per thread this is the wall-clock the architecture achieves,
//              so the shard-scaling claim is made on this metric and the
//              host core count is recorded in the JSON.
//
// Writes BENCH_runtime.json next to the working directory, including a
// telemetry block (the global registry's snapshot of the metrics-target
// run: per-stage packet counters, module rule hits, ring stalls, the
// window-merge histogram — see docs/telemetry.md).
//
//   bench_runtime [--shards N]        run {1, N}, capture metrics at N shards
//                                     (default sweep 1/2/4/8, metrics at 4)
//                [--burst B1,B2,...]  also sweep the hot-path batch size at
//                                     the metrics shard count (default: the
//                                     production burst 64 only)
//                [--packets N]        trace size override (CI smoke: 100000)
//                [--pcap FILE]        benchmark a real capture instead of
//                                     the synthetic trace (tiled in time up
//                                     to the --packets target)
//                [--min-wall-speedup X]  exit 1 if the metrics-shard wall
//                                     speedup over 1 shard lands below X
//                [--min-jit-speedup X]  exit 1 if the single-shard model-pps
//                                     gain of the compiled executors
//                                     (src/compile/) over the interpreter
//                                     lands below X
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"
#include "trace/pcap.h"

namespace newton {
namespace {

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Tile the base trace in time until it holds `target` packets, then trim.
Trace tile_to(Trace base, std::size_t target) {
  const uint64_t period = base.duration_ns() + 1'000'000;  // 1ms guard gap
  const std::size_t base_n = base.size();
  Trace out = std::move(base);
  out.packets.reserve(target);
  for (uint64_t k = 1; out.size() < target; ++k) {
    for (std::size_t i = 0; i < base_n && out.size() < target; ++i) {
      Packet p = out.packets[i];
      p.ts_ns += k * period;
      out.packets.push_back(p);
    }
  }
  out.packets.resize(target);
  return out;
}

struct Sample {
  std::size_t shards = 0;
  std::size_t burst = 0;
  bool jit = true;
  uint64_t jit_packets = 0;
  uint64_t jit_hash_lanes = 0;
  uint64_t wall = 0;
  uint64_t demux_cpu = 0;
  uint64_t max_worker_cpu = 0;
  std::vector<uint64_t> worker_cpu;
  uint64_t stalls = 0;
  uint64_t reports = 0;
  uint64_t failovers = 0;
  uint64_t redistributed = 0;
  uint64_t abandoned = 0;
  std::size_t live_shards = 0;
  double wall_pps = 0.0;
  double model_pps = 0.0;
};

Sample run_one(const Trace& t, std::size_t shards, std::size_t burst,
               bool jit = true) {
  // One run at a time in the global registry, so the exported metrics
  // block describes exactly the metrics-target run.
  telemetry::Registry::global().reset();
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = shards;
  o.queue_capacity = 8192;
  o.burst = burst;
  o.record_snapshots = false;  // measuring the data path, not the observer
  o.jit = jit;
  ShardedRuntime rt(sw, o);
  QueryParams p;
  rt.install(make_q1(p));
  rt.install(make_q3(p));
  rt.install(make_q5(p));

  const uint64_t w0 = wall_ns();
  const uint64_t c0 = thread_cpu_ns();
  rt.run(t);
  rt.finish();
  const uint64_t c1 = thread_cpu_ns();
  const uint64_t w1 = wall_ns();

  Sample s;
  s.shards = shards;
  s.burst = burst;
  s.jit = jit;
  s.wall = w1 - w0;
  s.demux_cpu = c1 - c0;
  const RuntimeStats& st = rt.stats();
  for (const WorkerStats& ws : st.workers) {
    s.worker_cpu.push_back(ws.busy_ns);
    if (ws.busy_ns > s.max_worker_cpu) s.max_worker_cpu = ws.busy_ns;
    s.jit_packets += ws.jit_packets;
    s.jit_hash_lanes += ws.jit_hash_lanes;
  }
  s.stalls = st.backpressure_stalls;
  s.reports = st.reports;
  s.failovers = st.worker_failovers;
  s.redistributed = st.redistributed_packets;
  s.abandoned = st.abandoned_packets;
  s.live_shards = st.live_shards;
  const double n = static_cast<double>(t.size());
  s.wall_pps = n * 1e9 / static_cast<double>(s.wall);
  const uint64_t crit = std::max(s.demux_cpu, s.max_worker_cpu);
  s.model_pps = n * 1e9 / static_cast<double>(crit);
  return s;
}

}  // namespace
}  // namespace newton

int main(int argc, char** argv) {
  using namespace newton;
  bench::header("Sharded runtime throughput vs. shard count");

  constexpr std::size_t kDefaultBurst = 64;
  std::size_t metrics_shards = 4;
  std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  std::vector<std::size_t> burst_sweep;  // extra bursts at metrics_shards
  std::size_t packets_override = 0;
  std::string pcap_path;  // real-capture input instead of the generator
  double min_wall_speedup = 0.0;  // 0 = no gate
  double min_jit_speedup = 0.0;   // 0 = no gate
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      metrics_shards = static_cast<std::size_t>(std::atol(argv[++i]));
      if (metrics_shards == 0) metrics_shards = 1;
      shard_counts = {1};
      if (metrics_shards != 1) shard_counts.push_back(metrics_shards);
    } else if (std::strcmp(argv[i], "--burst") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p) break;
        if (v > 0) burst_sweep.push_back(static_cast<std::size_t>(v));
        p = *end == ',' ? end + 1 : end;
      }
    } else if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
      packets_override = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--pcap") == 0 && i + 1 < argc) {
      pcap_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-wall-speedup") == 0 &&
               i + 1 < argc) {
      min_wall_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-jit-speedup") == 0 &&
               i + 1 < argc) {
      min_jit_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_runtime [--shards N] [--burst B1,B2,...] "
                   "[--packets N] [--pcap FILE] "
                   "[--min-wall-speedup X] [--min-jit-speedup X]\n");
      return 2;
    }
  }

  const std::size_t target =
      packets_override != 0 ? packets_override
                            : (bench::full_scale() ? 4'000'000 : 1'000'000);
  Trace base;
  if (!pcap_path.empty()) {
    PcapLoadStats pst;
    base = load_pcap(pcap_path, &pst);
    std::printf("pcap %s: %llu frame(s), skipped %llu (vlan %llu, ipv6 "
                "%llu, other %llu)\n",
                pcap_path.c_str(),
                static_cast<unsigned long long>(pst.frames),
                static_cast<unsigned long long>(pst.skipped),
                static_cast<unsigned long long>(pst.skipped_vlan),
                static_cast<unsigned long long>(pst.skipped_ipv6),
                static_cast<unsigned long long>(pst.skipped_other));
  } else {
    TraceProfile prof = caida_like(7);
    prof.num_flows = 30'000;
    base = generate_trace(prof);
    std::mt19937 rng(1007);
    inject_syn_flood(base, ipv4(172, 16, 200, 1), 300, 1, 50'000'000, rng);
    inject_udp_flood(base, ipv4(172, 16, 200, 3), 120, 2, 250'000'000, rng);
    inject_super_spreader(base, ipv4(198, 18, 4, 4), 150, 550'000'000, rng);
    base.sort_by_time();
  }
  const Trace t = tile_to(std::move(base), target);
  std::printf("trace: %zu packets, %.2fs span, host cores: %u\n", t.size(),
              static_cast<double>(t.duration_ns()) / 1e9,
              std::thread::hardware_concurrency());

  const auto print_sample = [](const Sample& s) {
    std::printf(
        "shards=%zu  burst=%3zu  jit=%s  wall=%7.1f ms  wall_pps=%9.0f  "
        "model_pps=%9.0f  demux_cpu=%6.1f ms  max_worker_cpu=%6.1f ms  "
        "stalls=%llu\n",
        s.shards, s.burst, s.jit ? "on " : "off",
        s.wall / 1e6, s.wall_pps,
        s.model_pps, s.demux_cpu / 1e6, s.max_worker_cpu / 1e6,
        static_cast<unsigned long long>(s.stalls));
  };

  std::vector<Sample> samples;
  std::string metrics_json;
  for (std::size_t n : shard_counts) {
    Sample s = run_one(t, n, kDefaultBurst);
    if (n == metrics_shards || metrics_json.empty())
      metrics_json =
          telemetry::to_json(telemetry::Registry::global().snapshot(), 2);
    print_sample(s);
    samples.push_back(std::move(s));
  }

  // Burst sweep at the metrics shard count: how much of the throughput is
  // bought by batching alone (burst 1 = the pre-batching handoff).
  std::vector<Sample> burst_samples;
  for (std::size_t b : burst_sweep) {
    Sample s = run_one(t, metrics_shards, b);
    print_sample(s);
    burst_samples.push_back(std::move(s));
  }
  // Compiled-vs-interpreted executors (src/compile/): re-run the
  // single-shard workload with the chain JIT off.  model_pps at n=1 is
  // pure executor cost, so the ratio is the compiled-path speedup.
  const Sample sji = run_one(t, 1, kDefaultBurst, /*jit=*/false);
  print_sample(sji);
  bench::row_sep();

  const Sample& s1 = samples[0];
  const Sample* speedup_sample = &samples.back();
  for (const Sample& s : samples)
    if (s.shards == metrics_shards) speedup_sample = &s;
  const Sample& sN = *speedup_sample;
  const double speedup_model = sN.model_pps / s1.model_pps;
  const double speedup_wall = sN.wall_pps / s1.wall_pps;
  std::printf("%zu-shard speedup: model %.2fx, wall %.2fx\n", sN.shards,
              speedup_model, speedup_wall);
  const double speedup_jit = s1.model_pps / sji.model_pps;
  std::printf("1-shard jit speedup: model %.2fx (compiled %llu/%zu packets, "
              "hash lanes %llu)\n",
              speedup_jit,
              static_cast<unsigned long long>(s1.jit_packets), t.size(),
              static_cast<unsigned long long>(s1.jit_hash_lanes));

  FILE* f = std::fopen("BENCH_runtime.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_runtime.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"sharded_runtime\",\n");
  std::fprintf(f, "  \"packets\": %zu,\n", t.size());
  std::fprintf(f, "  \"queries\": [\"q1_new_tcp\", \"q3_super_spreader\", "
                  "\"q5_udp_ddos\"],\n");
  std::fprintf(f, "  \"shard_key\": \"five_tuple\",\n");
  std::fprintf(f, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"metric_note\": \"model_pps = packets / "
                  "max(demux_cpu, busiest worker_cpu); equals wall-clock "
                  "throughput when each thread has its own core\",\n");
  const auto write_sample = [f](const Sample& s, bool last) {
    std::fprintf(f,
                 "    {\"n\": %zu, \"burst\": %zu, \"wall_ns\": %llu, "
                 "\"wall_pps\": %.0f, \"model_pps\": %.0f, "
                 "\"demux_cpu_ns\": %llu, \"worker_cpu_ns\": [",
                 s.shards, s.burst, static_cast<unsigned long long>(s.wall),
                 s.wall_pps, s.model_pps,
                 static_cast<unsigned long long>(s.demux_cpu));
    for (std::size_t j = 0; j < s.worker_cpu.size(); ++j)
      std::fprintf(f, "%s%llu", j ? ", " : "",
                   static_cast<unsigned long long>(s.worker_cpu[j]));
    std::fprintf(f,
                 "], \"backpressure_stalls\": %llu, \"reports\": %llu, "
                 "\"worker_failovers\": %llu, \"redistributed_packets\": "
                 "%llu, \"abandoned_packets\": %llu, \"live_shards\": %zu}%s\n",
                 static_cast<unsigned long long>(s.stalls),
                 static_cast<unsigned long long>(s.reports),
                 static_cast<unsigned long long>(s.failovers),
                 static_cast<unsigned long long>(s.redistributed),
                 static_cast<unsigned long long>(s.abandoned), s.live_shards,
                 last ? "" : ",");
  };

  std::fprintf(f, "  \"shards\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i)
    write_sample(samples[i], i + 1 == samples.size());
  std::fprintf(f, "  ],\n");
  if (!burst_samples.empty()) {
    std::fprintf(f, "  \"burst_sweep\": [\n");
    for (std::size_t i = 0; i < burst_samples.size(); ++i)
      write_sample(burst_samples[i], i + 1 == burst_samples.size());
    std::fprintf(f, "  ],\n");
  }
  // Compiled-executor block: the jit-off leg re-runs n=1 with the same
  // trace/burst, so model_pps ratio isolates the executor swap.
  std::fprintf(f, "  \"jit\": {\n");
  std::fprintf(f, "    \"enabled_default\": true,\n");
  std::fprintf(f, "    \"model_pps_1shard\": %.0f,\n", s1.model_pps);
  std::fprintf(f, "    \"model_pps_1shard_nojit\": %.0f,\n", sji.model_pps);
  std::fprintf(f, "    \"speedup_model_1shard\": %.3f,\n", speedup_jit);
  std::fprintf(f, "    \"jit_packets\": %llu,\n",
               static_cast<unsigned long long>(s1.jit_packets));
  std::fprintf(f, "    \"hash_lanes\": %llu\n",
               static_cast<unsigned long long>(s1.jit_hash_lanes));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup_model_%zushard\": %.3f,\n", sN.shards,
               speedup_model);
  std::fprintf(f, "  \"speedup_wall_%zushard\": %.3f,\n", sN.shards,
               speedup_wall);
  // Wall-clock trajectory across the repo's own history, for the perf PR's
  // before/after record (same 1M-packet workload, single-core CI host).
  // "seed" is the pre-batching runtime: item-at-a-time ring handoff,
  // per-packet heap allocation in the match path, linear table scans.
  std::fprintf(f, "  \"baseline_trajectory\": {\n");
  std::fprintf(f, "    \"seed\": {\"wall_pps_1shard\": 1283796, "
                  "\"wall_pps_4shard\": 1195747, "
                  "\"speedup_wall_4shard\": 0.931, "
                  "\"speedup_model_4shard\": 3.707},\n");
  std::fprintf(f, "    \"current\": {\"wall_pps_1shard\": %.0f, "
                  "\"wall_pps_%zushard\": %.0f, "
                  "\"speedup_wall_%zushard\": %.3f, "
                  "\"speedup_model_%zushard\": %.3f}\n",
               s1.wall_pps, sN.shards, sN.wall_pps, sN.shards, speedup_wall,
               sN.shards, speedup_model);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"metrics_shards\": %zu,\n", metrics_shards);
  std::fprintf(f, "  \"metrics\": %s\n", metrics_json.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_runtime.json\n");

  if (min_wall_speedup > 0.0 && speedup_wall < min_wall_speedup) {
    std::fprintf(stderr,
                 "FAIL: %zu-shard wall speedup %.3f < required %.3f\n",
                 sN.shards, speedup_wall, min_wall_speedup);
    return 1;
  }
  if (min_jit_speedup > 0.0 && speedup_jit < min_jit_speedup) {
    std::fprintf(stderr,
                 "FAIL: 1-shard jit model speedup %.3f < required %.3f\n",
                 speedup_jit, min_jit_speedup);
    return 1;
  }
  return 0;
}
