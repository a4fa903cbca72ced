// newton_tool: a small operator CLI over the library.
//
//   newton_tool gen <caida|mawi> <out.ntrc> [flows] [seed]   generate a trace
//   newton_tool info <trace.{ntrc,csv,pcap}>                 summarize it
//   newton_tool csv <in.ntrc> <out.csv>                      convert
//   newton_tool pcap <in.{ntrc,csv}> <out.pcap>              export a capture
//   newton_tool queries                                      list Q1-Q9
//   newton_tool queries --installed [qN[@tenant] ...]        install through
//     the runtime and print the operator view: tenant, per-stage resource
//     usage, JIT coverage state and each branch's shard key group
//   newton_tool compile <q1..q9>                             show the schedule
//   newton_tool run <q1..q9> <trace.{ntrc,csv}>              execute + report
//   newton_tool p4 [stages]                                  emit the layout P4
//   newton_tool rules <q1..q9>                               emit table rules
//   newton_tool query '<dsl>' <trace.{ntrc,csv,pcap}>        run a DSL intent
//     e.g. newton_tool query 'filter(proto == udp) | map(dip) |
//          reduce(dip, count) | when(>= 500)' t.ntrc
//   newton_tool inject <q1..q9> [seed] [events]              fault replay:
//     deploy the query resiliently on a fat-tree, replay a trace under a
//     seeded link-failure plan and print the plan + failover counters
//   newton_tool detectors                                    list the real-
//     detector scenario library (src/detectors/) with each query chain
//   newton_tool replay --pcap FILE [--rate R|inf] [--shards N]
//                      [--detectors a,b|all]                 live-ingest a
//     capture through the sharded runtime at R x capture speed (inf =
//     unpaced) with detectors installed; prints per-source telemetry and
//     each detector's accuracy vs exact ground truth from the same capture
//   newton_tool fuzz [--runs N] [--seconds S] [--seed S]     differential
//     fuzz campaign: random scenarios cross-checked against the reference
//     oracle and every execution mode (docs/difftest.md); failing cases
//     are minimized and written as replayable scenario files
//     (--replay <file>).  NEWTON_DIFF_SEED overrides the base seed.
//
// Any command accepts --metrics: after the command runs, the process-global
// telemetry registry is dumped to stdout in Prometheus text exposition
// (per-stage packet counters, module rule hits, controller op latencies —
// docs/telemetry.md lists the series).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>

#include "analyzer/analyzer.h"
#include "core/compose.h"
#include "core/dump.h"
#include "core/newton_switch.h"
#include "core/p4gen.h"
#include "core/parse_query.h"
#include "core/queries.h"
#include "detectors/detector.h"
#include "difftest/fuzzer.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "ingest/pcap_source.h"
#include "ingest/pump.h"
#include "ingest/replay_source.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"
#include "trace/pcap.h"
#include "trace/trace_io.h"

using namespace newton;

namespace {

Trace load_any(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".csv")
    return load_trace_csv(path);
  if (path.size() > 5 && path.substr(path.size() - 5) == ".pcap")
    return load_pcap(path);
  return load_trace(path);
}

int query_index(const std::string& s) {
  if (s.size() == 2 && s[0] == 'q' && s[1] >= '1' && s[1] <= '9')
    return s[1] - '1';
  return -1;
}

int usage() {
  std::fprintf(stderr,
               "usage: newton_tool gen <caida|mawi> <out.ntrc> [flows] [seed]\n"
               "       newton_tool info <trace.{ntrc,csv}>\n"
               "       newton_tool csv <in.ntrc> <out.csv>\n"
               "       newton_tool queries [--installed [qN[@tenant] ...]]\n"
               "       newton_tool compile <q1..q9>\n"
               "       newton_tool run <q1..q9> <trace.{ntrc,csv}>\n"
               "       newton_tool p4 [stages]\n"
               "       newton_tool rules <q1..q9>\n"
               "       newton_tool inject <q1..q9> [seed] [events]\n"
               "       newton_tool detectors\n"
               "       newton_tool replay --pcap FILE [--rate R|inf]\n"
               "                          [--shards N] [--detectors a,b|all]\n"
               "       newton_tool fuzz [--runs N] [--seconds S] [--seed S]\n"
               "                        [--corpus DIR] [--save-corpus DIR] [--out DIR]\n"
               "                        [--replay FILE] [--churn] [--placement]\n"
               "                        [--no-minimize] [-v]\n"
               "       (append --metrics to dump telemetry after any "
               "command)\n");
  return 2;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) return usage();
  TraceProfile p = std::strcmp(argv[2], "mawi") == 0 ? mawi_like() : caida_like();
  if (argc > 4) p.num_flows = static_cast<std::size_t>(std::atol(argv[4]));
  if (argc > 5) p.seed = static_cast<uint32_t>(std::atol(argv[5]));
  const Trace t = generate_trace(p);
  save_trace(t, argv[3]);
  std::printf("wrote %zu packets (%.2f s of %s traffic) to %s\n", t.size(),
              t.duration_ns() / 1e9, p.name.c_str(), argv[3]);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return usage();
  const Trace t = load_any(argv[2]);
  std::map<uint32_t, std::size_t> per_proto;
  uint64_t bytes = 0;
  for (const Packet& p : t.packets) {
    ++per_proto[p.proto()];
    bytes += p.wire_len;
  }
  std::printf("%s: %zu packets, %.3f s, %.2f MB\n", t.name.c_str(), t.size(),
              t.duration_ns() / 1e9, static_cast<double>(bytes) / 1e6);
  for (const auto& [proto, n] : per_proto)
    std::printf("  proto %3u: %zu packets (%.1f%%)\n", proto, n,
                100.0 * static_cast<double>(n) / static_cast<double>(t.size()));
  return 0;
}

int cmd_csv(int argc, char** argv) {
  if (argc < 4) return usage();
  save_trace_csv(load_trace(argv[2]), argv[3]);
  std::printf("converted %s -> %s\n", argv[2], argv[3]);
  return 0;
}

// Bare `queries` lists the Q1-Q9 library.  `queries --installed [qN[@tenant]
// ...]` installs the named queries (default: all nine) through the sharded
// runtime and prints the operator view of the installed set: tenant, qids
// with each branch's shard key group (docs/runtime.md), per-stage resource
// usage (core/admission.h demand vectors) and the tier its chains run on:
// `compiled` when the runtime's jit is on (every installed branch lowers at
// every replica load), else `interp`.
int cmd_queries(int argc, char** argv) {
  if (argc < 3) {
    for (std::size_t i = 1; i <= 9; ++i)
      std::printf("q%zu  %s\n", i, query_description(i).c_str());
    return 0;
  }
  if (std::strcmp(argv[2], "--installed") != 0) return usage();

  std::vector<std::pair<int, std::string>> specs;  // (library index, tenant)
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    std::string tenant = kDefaultTenant;
    const auto at = a.find('@');
    if (at != std::string::npos) {
      tenant = a.substr(at + 1);
      a = a.substr(0, at);
    }
    const int qi = query_index(a);
    if (qi < 0 || tenant.empty()) return usage();
    specs.emplace_back(qi, tenant);
  }
  if (specs.empty())
    for (int i = 0; i < 9; ++i) specs.emplace_back(i, kDefaultTenant);

  Analyzer an;
  NewtonSwitch sw(1, 64, &an, 1 << 18);
  RuntimeOptions ro;
  ro.num_shards = 1;
  ShardedRuntime rt(sw, ro, &an);
  for (const auto& [qi, tenant] : specs) {
    const Query q = all_queries()[static_cast<std::size_t>(qi)];
    try {
      rt.install(q, {}, tenant);
    } catch (const Controller::AdmissionError& e) {
      std::printf("%-18s %-10s REJECTED %s\n", q.name.c_str(),
                  tenant.c_str(), e.decision().to_string().c_str());
    }
  }
  rt.start();  // clones replicas and lowers the installed chains
  const char* tier = rt.jit_enabled() ? "compiled" : "interp";

  // Each branch's shard key group, as "qid:key".
  std::map<uint16_t, std::string> key_of;
  for (const ShardGroup& g : rt.shard_groups())
    for (uint16_t q : g.qids) key_of[q] = describe(g.key);
  std::printf("%-18s %-10s %-8s %-6s %-6s %-6s %s\n", "query", "tenant",
              "jit", "rules", "regs", "init", "qid:shard key");
  for (const Controller::QueryInfo& info : rt.controller().list_queries()) {
    std::string qids;
    for (uint16_t q : info.qids) {
      if (!qids.empty()) qids += ' ';
      qids += std::to_string(q);
      qids += ':';
      qids += key_of[q];
    }
    std::printf("%-18s %-10s %-8s %-6zu %-6zu %-6zu [%s]\n",
                info.name.c_str(), info.tenant.c_str(),
                tier, info.demand->total_rules,
                info.demand->total_registers, info.demand->init_entries,
                qids.c_str());
    for (const auto& [stage, sd] : info.demand->stages)
      std::printf("    stage %-2zu  K=%zu H=%zu S=%zu R=%zu  regs=%zu\n",
                  stage, sd.k_rules, sd.h_rules, sd.s_rules, sd.r_rules,
                  sd.registers());
  }
  const auto frag = rt.controller().fragmentation();
  std::printf("switch: %zu installs, %zu free registers "
              "(largest block %zu, stranded %zu)\n",
              sw.num_installs(), frag.free_registers,
              frag.largest_free_block, frag.stranded_registers);
  rt.finish();
  return 0;
}

int cmd_compile(int argc, char** argv) {
  if (argc < 3) return usage();
  const int qi = query_index(argv[2]);
  if (qi < 0) return usage();
  const Query q = all_queries()[static_cast<std::size_t>(qi)];
  std::printf("%s\n%s", dump_query(q).c_str(),
              dump_compiled(compile_query(q)).c_str());
  return 0;
}

int run_query_over(const Query& q, const Trace& t);

int cmd_run(int argc, char** argv) {
  if (argc < 4) return usage();
  const int qi = query_index(argv[2]);
  if (qi < 0) return usage();
  const Query q = all_queries()[static_cast<std::size_t>(qi)];
  return run_query_over(q, load_any(argv[3]));
}

int cmd_query(int argc, char** argv) {
  if (argc < 4) return usage();
  const Query q = parse_query("cli_intent", argv[2]);
  return run_query_over(q, load_any(argv[3]));
}

int run_query_over(const Query& q, const Trace& t) {
  Analyzer an;
  NewtonSwitch sw(1, 18, &an, 1 << 16);
  const auto res = sw.install(compile_query(q));
  for (std::size_t bi = 0; bi < res.qids.size(); ++bi)
    an.register_qid_any(res.qids[bi], q.name, bi);
  for (const Packet& p : t.packets) sw.process(p);
  sw.flush_telemetry();  // publish the final partial window before any dump

  std::printf("%s over %zu packets: %zu report(s)\n", q.name.c_str(),
              t.size(), an.reports_for(q.name));
  for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
    int shown = 0;
    for (const KeyArray& k : an.detected(q.name, bi)) {
      if (shown++ == 10) {
        std::printf("  ...\n");
        break;
      }
      std::printf("  [%s] sip=%s dip=%s sport=%u dport=%u len=%u\n",
                  q.branches[bi].name.c_str(),
                  ipv4_to_string(k[index(Field::SrcIp)]).c_str(),
                  ipv4_to_string(k[index(Field::DstIp)]).c_str(),
                  k[index(Field::SrcPort)], k[index(Field::DstPort)],
                  k[index(Field::PktLen)]);
    }
  }
  return 0;
}

int cmd_inject(int argc, char** argv) {
  if (argc < 3) return usage();
  const int qi = query_index(argv[2]);
  if (qi < 0) return usage();
  const uint32_t seed =
      argc > 3 ? static_cast<uint32_t>(std::atol(argv[3])) : 1u;
  const std::size_t n_events =
      argc > 4 ? static_cast<std::size_t>(std::atol(argv[4])) : 8u;
  const Query q = all_queries()[static_cast<std::size_t>(qi)];

  TraceProfile prof = caida_like(seed);
  prof.num_flows = 300;
  const Trace t = generate_trace(prof);

  Analyzer an;
  Network net(make_fat_tree(4), /*stages_per_switch=*/6, &an, 1 << 13);
  NetworkController ctl(net, &an);
  CompileOptions opts;
  opts.opt3 = false;  // force multi-slice so the reroute machinery engages
  const auto& dep = ctl.deploy(q, opts);
  std::printf("deployed %s: %zu slice(s) on %zu switch(es)\n",
              q.name.c_str(), dep.slices.size(),
              dep.placement.assignment.size());

  FaultPlan plan = make_random_link_plan(net.topo(), seed, n_events, t.size(),
                                         t.size() / 8);
  std::printf("fault plan (seed %u):\n%s", seed,
              plan.describe(net.topo()).c_str());

  FaultInjector inj(net, std::move(plan), &ctl);
  const auto hosts = net.topo().hosts();
  std::size_t deferred = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    inj.advance(i);
    const auto st = net.send(t.packets[i], hosts[(i * 7 + 1) % hosts.size()],
                             hosts[(i * 11 + 5) % hosts.size()]);
    deferred += st.deferred ? 1u : 0u;
  }
  inj.finish();

  const auto& fs = ctl.fault_stats();
  std::printf(
      "replayed %zu packets: %zu event(s) applied, %zu dropped, %zu "
      "deferred\n"
      "controller: retries=%llu rollbacks=%llu failovers=%llu "
      "delta_installs=%llu delta_withdrawals=%llu degraded=%s\n"
      "%s: %zu report(s)\n",
      t.size(), inj.events_applied(), net.packets_dropped(), deferred,
      static_cast<unsigned long long>(fs.install_retries),
      static_cast<unsigned long long>(fs.rollbacks),
      static_cast<unsigned long long>(fs.failovers),
      static_cast<unsigned long long>(fs.delta_installs),
      static_cast<unsigned long long>(fs.delta_withdrawals),
      ctl.any_degraded() ? "yes" : "no", q.name.c_str(),
      an.reports_for(q.name));
  return 0;
}

int cmd_detectors() {
  for (const auto& d : detectors::detector_library())
    std::printf("%-14s %s\n  %s\n", d.id.c_str(), d.intent.c_str(),
                d.chain.c_str());
  return 0;
}

// replay: stream a capture through the live-ingestion path into the sharded
// runtime with the detector library installed, then score every detector
// against exact ground truth from the same capture.
int cmd_replay(int argc, char** argv) {
  std::string pcap_path;
  std::string which = "all";
  double rate = 0;  // unpaced
  std::size_t shards = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--pcap" && (v = next())) {
      pcap_path = v;
    } else if (a == "--rate" && (v = next())) {
      rate = std::strcmp(v, "inf") == 0 ? 0 : std::atof(v);  // "10x" parses
    } else if (a == "--shards" && (v = next())) {
      shards = static_cast<std::size_t>(std::atol(v));
    } else if (a == "--detectors" && (v = next())) {
      which = v;
    } else {
      return usage();
    }
  }
  if (pcap_path.empty()) return usage();

  const auto lib = detectors::detector_library();
  std::vector<const detectors::Detector*> selected;
  if (which == "all") {
    for (const auto& d : lib) selected.push_back(&d);
  } else {
    std::string rest = which;
    while (!rest.empty()) {
      const auto comma = rest.find(',');
      const std::string id = rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      const auto* d = detectors::find_detector(lib, id);
      if (d == nullptr) {
        std::fprintf(stderr, "unknown detector '%s' (see: newton_tool "
                     "detectors)\n", id.c_str());
        return 2;
      }
      selected.push_back(d);
    }
  }
  if (selected.empty()) return usage();

  // Ground truth comes from the same capture, materialized once.
  const Trace t = load_pcap(pcap_path);
  Analyzer an;
  detectors::ValueSink values(selected.front()->query.window_ns);
  // Deep stage budget: every selected detector installs concurrently.  The
  // runtime derives the key groups (sip/8, dip, dport) itself.
  NewtonSwitch sw(1, 64, nullptr);
  RuntimeOptions ro;
  ro.num_shards = shards;
  ro.record_snapshots = false;
  ShardedRuntime rt(sw, ro, &an);
  rt.set_report_sink(&values);
  for (const auto* d : selected) rt.install(d->query);

  ingest::PcapFileSource file(pcap_path);
  ingest::ReplaySource src(file, {.rate = rate});
  ingest::IngestPump pump(rt);
  const ingest::PumpStats ps = pump.run(src);
  rt.finish();

  const ingest::SourceStats& ss = ps.source;
  std::printf(
      "%llu frame(s) -> %llu packet(s), %.2f MB, %llu window(s), "
      "%zu shard key group(s)\n"
      "  skipped: %llu vlan, %llu ipv6, %llu other; dropped %llu; "
      "%llu batch(es), %llu would-block\n",
      static_cast<unsigned long long>(ss.frames),
      static_cast<unsigned long long>(ss.packets),
      static_cast<double>(ss.bytes) / 1e6,
      static_cast<unsigned long long>(rt.stats().windows),
      rt.shard_groups().size(),
      static_cast<unsigned long long>(ss.skipped_vlan),
      static_cast<unsigned long long>(ss.skipped_ipv6),
      static_cast<unsigned long long>(ss.skipped_other),
      static_cast<unsigned long long>(ss.dropped),
      static_cast<unsigned long long>(ps.batches),
      static_cast<unsigned long long>(ps.would_block));
  if (ss.paced_packets > 0)
    std::printf("  pacing (%.2fx): lag avg %.1f us, max %.1f us over %llu "
                "packet(s)\n",
                rate, static_cast<double>(ss.pacing_lag_ns_total) / 1e3 /
                          static_cast<double>(ss.paced_packets),
                static_cast<double>(ss.pacing_lag_ns_max) / 1e3,
                static_cast<unsigned long long>(ss.paced_packets));

  int rc = 0;
  const detectors::EvalInput in{t, an, values};
  for (const auto* d : selected) {
    const detectors::Evaluation e = d->evaluate(in);
    const bool ok = e.acc.precision() >= d->min_precision &&
                    e.acc.recall() >= d->min_recall;
    if (!ok) rc = 1;
    std::printf(
        "  %-14s %zu detected / %zu truth  precision %.3f recall %.3f "
        "f1 %.3f  [%s]\n",
        d->id.c_str(), e.detected_keys, e.truth_keys, e.acc.precision(),
        e.acc.recall(), e.acc.f1(), ok ? "ok" : "MISS");
  }
  return rc;
}

int cmd_fuzz(int argc, char** argv) {
  difftest::FuzzOptions fo;
  std::string replay;
  bool seed_set = false;
  bool budget_set = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--runs" && (v = next())) {
      fo.max_runs = static_cast<std::size_t>(std::atol(v));
      budget_set = true;
    } else if (a == "--seconds" && (v = next())) {
      fo.max_seconds = std::atof(v);
      budget_set = true;
    } else if (a == "--seed" && (v = next())) {
      fo.seed = std::strtoull(v, nullptr, 10);
      seed_set = true;
    } else if (a == "--replay" && (v = next())) {
      replay = v;
    } else if (a == "--corpus" && (v = next())) {
      fo.corpus_dir = v;
    } else if (a == "--out" && (v = next())) {
      fo.out_dir = v;
    } else if (a == "--churn") {
      fo.force_churn = true;
    } else if (a == "--placement") {
      fo.force_placement = true;
    } else if (a == "--save-corpus" && (v = next())) {
      fo.save_corpus_dir = v;
    } else if (a == "--no-minimize") {
      fo.minimize = false;
    } else if (a == "--verbose" || a == "-v") {
      fo.verbose = true;
    } else {
      return usage();
    }
  }
  if (!replay.empty())
    return difftest::replay_file(replay, fo.minimize, fo.out_dir);

  if (!seed_set) {
    const char* env = std::getenv("NEWTON_DIFF_SEED");
    if (env && *env)
      fo.seed = std::strtoull(env, nullptr, 10);
    else
      fo.seed = std::random_device{}();
  }
  if (!budget_set) fo.max_runs = 1000;
  const std::string budget =
      fo.max_runs ? " --runs " + std::to_string(fo.max_runs) : std::string();
  std::printf("fuzz: base seed %llu (replay campaign: newton_tool fuzz "
              "--seed %llu%s)\n",
              static_cast<unsigned long long>(fo.seed),
              static_cast<unsigned long long>(fo.seed), budget.c_str());
  const difftest::FuzzStats st = difftest::run_fuzzer(fo);
  std::printf("fuzz: %zu run(s), %zu divergent, corpus %zu, %zu coverage "
              "bit(s), late arrivals in %zu, placement axis in %zu, "
              "overlap chains in %zu\n",
              st.runs, st.divergent, st.corpus, st.coverage_bits,
              st.late_scenarios, st.placement_scenarios,
              st.overlap_chain_scenarios);
  for (const std::string& f : st.failure_files)
    std::printf("fuzz: failing scenario %s (replay: newton_tool fuzz "
                "--replay %s)\n",
                f.c_str(), f.c_str());
  return st.ok() ? 0 : 1;
}

}  // namespace

int run_command(int argc, char** argv);

int main(int argc, char** argv) {
  // Strip --metrics wherever it appears; dump the registry on the way out.
  bool metrics = false;
  int n = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0)
      metrics = true;
    else
      argv[n++] = argv[i];
  }
  argc = n;
  const int rc = run_command(argc, argv);
  if (metrics)
    std::fputs(
        telemetry::to_prometheus(telemetry::Registry::global().snapshot())
            .c_str(),
        stdout);
  return rc;
}

int run_command(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "csv") return cmd_csv(argc, argv);
    if (cmd == "pcap") {
      if (argc < 4) return usage();
      save_pcap(load_any(argv[2]), argv[3]);
      std::printf("exported %s -> %s\n", argv[2], argv[3]);
      return 0;
    }
    if (cmd == "queries") return cmd_queries(argc, argv);
    if (cmd == "compile") return cmd_compile(argc, argv);
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "query") return cmd_query(argc, argv);
    if (cmd == "p4") {
      P4GenOptions o;
      if (argc > 2) o.stages = static_cast<std::size_t>(std::atol(argv[2]));
      std::fputs(generate_p4_program(o).c_str(), stdout);
      return 0;
    }
    if (cmd == "inject") return cmd_inject(argc, argv);
    if (cmd == "detectors") return cmd_detectors();
    if (cmd == "replay") return cmd_replay(argc, argv);
    if (cmd == "fuzz") return cmd_fuzz(argc, argv);
    if (cmd == "rules") {
      const int qi = argc > 2 ? query_index(argv[2]) : -1;
      if (qi < 0) return usage();
      const Query q = all_queries()[static_cast<std::size_t>(qi)];
      std::fputs(generate_rule_script(compile_query(q)).c_str(), stdout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
