// Detector-library accuracy: every detector in src/detectors/ run over the
// labeled attack trace (make_labeled_attack_trace) through the full live
// path — pcap on disk, streaming PcapFileSource, sharded runtime — and
// scored against exact ground truth derived from the same capture.
//
// This is the end-to-end companion to bench_fig14_accuracy: Fig. 14 sweeps
// sketch width on one query; this experiment fixes the production sketch
// and asks "do the operator-facing detectors actually detect the labeled
// attacks?", at 1 and 4 shards (results must agree).
//
//   bench_detectors [--pcap FILE] [--shards N] [--seed S]
//
// Writes BENCH_detectors.json (per-detector precision/recall/f1/fpr plus
// the ingest telemetry of the run).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "bench_util.h"
#include "core/newton_switch.h"
#include "detectors/detector.h"
#include "ingest/pcap_source.h"
#include "ingest/pump.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"
#include "trace/attacks.h"
#include "trace/pcap.h"

using namespace newton;

namespace {

struct Row {
  std::string id;
  detectors::Evaluation ev;
  bool ok = false;
};

std::vector<Row> run_once(const std::string& pcap_path, std::size_t shards,
                          const std::vector<detectors::Detector>& lib) {
  telemetry::Registry::global().reset();
  const Trace t = load_pcap(pcap_path);

  Analyzer an;
  detectors::ValueSink values(lib.front().query.window_ns);
  // Concurrent chains stack up the pipeline: give the primary switch a deep
  // stage budget (install places overlapping queries into later stages).
  // The runtime derives the key groups (sip/8, dip, dport) itself.
  NewtonSwitch sw(1, 64, nullptr);
  RuntimeOptions ro;
  ro.num_shards = shards;
  ro.record_snapshots = false;
  ShardedRuntime rt(sw, ro, &an);
  rt.set_report_sink(&values);
  for (const auto& d : lib) rt.install(d.query);

  ingest::PcapFileSource src(pcap_path);
  ingest::IngestPump pump(rt);
  pump.run(src);
  rt.finish();

  const detectors::EvalInput in{t, an, values};
  std::vector<Row> rows;
  for (const auto& d : lib) {
    Row r;
    r.id = d.id;
    r.ev = d.evaluate(in);
    r.ok = r.ev.acc.precision() >= d.min_precision &&
           r.ev.acc.recall() >= d.min_recall;
    rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Detector library accuracy over live pcap ingestion");

  std::string pcap_path;
  std::size_t shards = 4;
  uint32_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pcap") == 0 && i + 1 < argc) {
      pcap_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint32_t>(std::atol(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_detectors [--pcap FILE] [--shards N] "
                   "[--seed S]\n");
      return 2;
    }
  }

  // Default workload: the labeled attack trace, exported as a capture so
  // the run exercises the real file-ingestion path end to end.
  std::string generated;
  if (pcap_path.empty()) {
    const LabeledAttackTrace labeled = make_labeled_attack_trace(
        seed, bench::full_scale() ? 2'000 : 120);
    generated = "BENCH_detectors_labeled.pcap";
    save_pcap(labeled.trace, generated);
    pcap_path = generated;
    std::printf("labeled trace: %zu packets (seed %u) -> %s\n",
                labeled.trace.size(), seed, generated.c_str());
  }

  const auto lib = detectors::detector_library();
  const auto rows1 = run_once(pcap_path, 1, lib);
  const auto rowsN =
      shards > 1 ? run_once(pcap_path, shards, lib) : rows1;
  const std::string ingest_json =
      telemetry::to_json(telemetry::Registry::global().snapshot(), 2);

  bool all_ok = true;
  bool shard_agree = true;
  std::printf("%-14s %9s %9s %9s %9s %9s  status\n", "detector", "detected",
              "truth", "precision", "recall", "f1");
  for (std::size_t i = 0; i < rowsN.size(); ++i) {
    const Row& r = rowsN[i];
    all_ok = all_ok && r.ok;
    const bool agree =
        rows1[i].ev.detected_keys == r.ev.detected_keys &&
        rows1[i].ev.acc.tp == r.ev.acc.tp && rows1[i].ev.acc.fp == r.ev.acc.fp;
    shard_agree = shard_agree && agree;
    std::printf("%-14s %9zu %9zu %9.3f %9.3f %9.3f  [%s%s]\n", r.id.c_str(),
                r.ev.detected_keys, r.ev.truth_keys, r.ev.acc.precision(),
                r.ev.acc.recall(), r.ev.acc.f1(), r.ok ? "ok" : "MISS",
                agree ? "" : ", 1-vs-N DIVERGED");
  }
  bench::row_sep();
  std::printf("bounds %s; 1-vs-%zu-shard results %s\n",
              all_ok ? "met" : "VIOLATED", shards,
              shard_agree ? "agree" : "DIVERGED");

  FILE* f = std::fopen("BENCH_detectors.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_detectors.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"detector_accuracy\",\n");
  std::fprintf(f, "  \"pcap\": \"%s\",\n", pcap_path.c_str());
  std::fprintf(f, "  \"shards\": %zu,\n", shards);
  std::fprintf(f, "  \"shard_agreement\": %s,\n",
               shard_agree ? "true" : "false");
  std::fprintf(f, "  \"detectors\": [\n");
  for (std::size_t i = 0; i < rowsN.size(); ++i) {
    const Row& r = rowsN[i];
    std::fprintf(f,
                 "    {\"id\": \"%s\", \"detected\": %zu, \"truth\": %zu, "
                 "\"tp\": %zu, \"fp\": %zu, \"fn\": %zu, \"tn\": %zu, "
                 "\"precision\": %.4f, \"recall\": %.4f, \"f1\": %.4f, "
                 "\"fpr\": %.4f, \"ok\": %s}%s\n",
                 r.id.c_str(), r.ev.detected_keys, r.ev.truth_keys,
                 r.ev.acc.tp, r.ev.acc.fp, r.ev.acc.fn, r.ev.acc.tn,
                 r.ev.acc.precision(), r.ev.acc.recall(), r.ev.acc.f1(),
                 r.ev.acc.fpr(), r.ok ? "true" : "false",
                 i + 1 == rowsN.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ingest_metrics\": %s\n", ingest_json.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_detectors.json\n");

  return all_ok && shard_agree ? 0 : 1;
}
