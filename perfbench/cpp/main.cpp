// perfbench: the repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--plant-drop] [--data-dir DIR]
//   perfbench --workload detect-pcap --pin-inputs [--data-dir DIR]
//
// Runs one workload for S seconds of passes, checks every pass's reports
// against a single-threaded oracle (exit 3 on a mismatch), prints the
// workload's measured properties, and ends with one JSON line:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (plus the span dump in DIR).  --pin-inputs recomputes
// detect-pcap's table of pinned inputs.  See ../README.md.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Results;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload q135-trace|detect-pcap|"
               "tenant-churn|fleet-k16 --seed N --seconds S --trace 0|1 "
               "[--tiny] [--plant-drop] [--data-dir DIR]\n"
               "       perfbench --workload detect-pcap --pin-inputs "
               "[--data-dir DIR]\n");
  return 2;
}

void print_json(const Results& r, bool trace) {
  const auto& defs = trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.metrics.find(defs[i].name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  bool pin = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool next = i + 1 < argc;
    if (a == "--workload" && next)
      o.workload = argv[++i];
    else if (a == "--seed" && next)
      o.seed = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    else if (a == "--seconds" && next)
      o.seconds = std::atof(argv[++i]);
    else if (a == "--trace" && next) {
      o.trace = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (a == "--tiny")
      o.tiny = true;
    else if (a == "--plant-drop")
      o.plant_drop = true;
    else if (a == "--data-dir" && next)
      o.data_dir = argv[++i];
    else if (a == "--pin-inputs")
      pin = true;
    else
      return usage();
  }
  if (pin && o.workload == "detect-pcap") {
    mkdir(o.data_dir.c_str(), 0755);
    return perfbench::pin_detect_inputs(o);
  }
  if (o.workload.empty() || !have_trace || o.seconds <= 0) return usage();
  mkdir(o.data_dir.c_str(), 0755);

  Results r;
  try {
    if (o.workload == "q135-trace")
      perfbench::run_q135(o, r);
    else if (o.workload == "detect-pcap")
      perfbench::run_detect(o, r);
    else if (o.workload == "tenant-churn")
      perfbench::run_churn(o, r);
    else if (o.workload == "fleet-k16")
      perfbench::run_fleet(o, r);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s failed: %s\n",
                 o.workload.c_str(), e.what());
    return 1;
  }
  std::printf("workload %s seed %u trace %d\n", o.workload.c_str(), o.seed,
              o.trace ? 1 : 0);
  for (const auto& [k, v] : r.properties)
    std::printf("  property %-28s %s\n", k.c_str(), v.c_str());
  const auto& defs = o.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  for (const auto& d : defs) {
    const auto it = r.metrics.find(d.name);
    std::printf("  metric   %-34s %14.6g %s\n", d.name,
                it == r.metrics.end() ? 0.0 : it->second, d.unit);
  }
  for (const auto& d : perfbench::kEndToEnd)
    if (r.metrics.find(d.name) == r.metrics.end()) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   d.name);
      return 1;
    }
  std::fflush(stdout);
  print_json(r, o.trace);
  return 0;
}
