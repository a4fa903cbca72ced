// Shared machinery of the repository benchmark: options, clocks, order
// statistics, the span tracer, the report output gate, and the result
// table every workload fills.  See ../README.md for the workloads and the
// meaning of every metric.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/newton_switch.h"
#include "core/report.h"
#include "runtime/sharded_runtime.h"
#include "trace/trace_gen.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       // traced run: per-layer metrics instead of e2e
  bool tiny = false;        // self-check scale: small inputs, one pass
  bool plant_drop = false;  // drop one report in a sink wrapper (gate test)
  std::string data_dir = ".bench_build/data";  // pcap scratch
};

uint64_t now_ns();  // steady clock
double percentile(std::vector<double> v, double p);  // nearest rank
double median(std::vector<double> v);
// Peak resident set (VmHWM) since the last reset_peak_rss(); the reset
// (Linux /proc/self/clear_refs) lets a run exclude input generation and
// the oracle.  Without it this is the process's ru_maxrss.
void reset_peak_rss();
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Spans: (name, start, end, parent, id), kept in memory and written out at
// exit.  Per-name totals are always kept; individual spans up to a cap.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint32_t name = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxStoredSpans = 200'000;

  bool on = false;

  uint32_t intern(const std::string& name);
  // Open a span under the innermost open span; returns its id.
  uint64_t begin(uint32_t name);
  void end(uint64_t id);
  // Record a completed span with explicit times under the innermost open
  // span (for intervals measured between two calls, e.g. pull gaps).
  void add(uint32_t name, uint64_t start_ns, uint64_t end_ns);

  double total_ns(const std::string& name) const;
  uint64_t count(const std::string& name) const;
  bool write(const std::string& path) const;

 private:
  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };
  void close(uint32_t name, uint64_t id, uint64_t parent, uint64_t s,
             uint64_t e);

  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<Agg> agg_;
  struct Open {
    uint64_t id;
    uint32_t name;
    uint64_t start_ns;
    uint64_t parent;
  };
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
};

// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, uint32_t name) : t_(t), id_(t.on ? t.begin(name) : 0) {}
  ~Scope() {
    if (id_ != 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  uint64_t id_;
};

// ---------------------------------------------------------------------------
// Results of one run: metrics by name and the measured workload properties
// printed for later citation.
struct Results {
  std::map<std::string, double> metrics;  // units: kEndToEnd / kPerLayer
  std::vector<std::pair<std::string, std::string>> properties;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void prop(const std::string& name, double value);
};

// ---------------------------------------------------------------------------
// Output gate.
//
// Records every report handed to it; with `plant_drop` it silently loses
// the first one, which the gate must catch (benchmark self-check).
class GateSink : public newton::ReportSink {
 public:
  explicit GateSink(bool plant_drop = false) : plant_drop_(plant_drop) {}
  void report(const newton::ReportRecord& r) override {
    if (plant_drop_ && !dropped_) {
      dropped_ = true;
      return;
    }
    records.push_back(r);
  }
  std::vector<newton::ReportRecord> records;

 private:
  bool plant_drop_;
  bool dropped_ = false;
};

// Exit with status 3 after naming the workload and the window that
// mismatched (kAllWindows for run-level checks).  Never returns.
inline constexpr uint64_t kAllWindows = ~0ull;
[[noreturn]] void gate_fail(const std::string& workload, uint64_t window,
                            const std::string& what);

// Compare two report multisets (order-insensitive, every field) and fail
// the gate at the first window whose reports differ.
void check_reports(const std::string& workload,
                   std::vector<newton::ReportRecord> got,
                   std::vector<newton::ReportRecord> want,
                   uint64_t window_ns);

// Indices of the packets that open a new window, with the runtime's rule
// (the stream starts in window 0, any epoch change is a boundary).
std::vector<std::size_t> window_crossings(const std::vector<newton::Packet>& p,
                                          uint64_t window_ns);

// Tile `base` in time until it holds `target` packets.  `period_ns` is
// rounded up to whole windows so every copy keeps its window alignment.
newton::Trace tile(const newton::Trace& base, std::size_t target,
                   uint64_t window_ns);

// Offer `pkts` to `rt.process` in order (one producer, closed loop).  Just
// before packet index marks[k] is offered, `on_mark(k)` runs.  Every call
// that opens a new window (indices in `crossings`) is timed into
// `boundary_ms` (and its end time into `boundary_end_ns`): that call fences
// the workers, merges and delivers every report of the closed window before
// it returns.  When traced, records a `runtime.process` span per 64 offered
// packets and a `runtime.barrier` span per window-opening call.
void drive_runtime(newton::ShardedRuntime& rt,
                   const std::vector<newton::Packet>& pkts,
                   const std::vector<std::size_t>& crossings,
                   const std::vector<std::size_t>& marks,
                   const std::function<void(std::size_t)>& on_mark,
                   Tracer& tr, std::vector<double>& boundary_ms,
                   std::vector<uint64_t>* boundary_end_ns = nullptr);

// Per-pass samples of the end-to-end metrics.  Untraced passes feed the
// end-to-end figures; traced passes only the tracing-overhead comparison.
struct Samples {
  std::vector<double> pps, setup_s;
  std::vector<double> delay_p50, delay_p95;  // per pass
  std::size_t delay_samples = 0;
  std::vector<double> pps_traced;

  // One pass's report delays (one per closed window).
  void add_delays(const std::vector<double>& ms);
};
// Fill the end-to-end metrics (medians over passes, of the per-pass delay
// percentiles too, so a host hiccup confined to a few passes does not set
// them; peak RSS), the failed share and the tracing overhead.  Call after
// the passes have counted attempted and failed operations.
void emit_end_to_end(const Samples& s, Results& r);

// Pass loop: run `pass(i)` until `seconds` elapsed and at least
// `min_passes` ran.  Peak RSS is measured from here on.  Returns the pass
// count.
template <class F>
std::size_t run_passes(double seconds, std::size_t min_passes, F&& pass) {
  reset_peak_rss();
  const uint64_t deadline =
      now_ns() + static_cast<uint64_t>(seconds * 1e9);
  std::size_t n = 0;
  do {
    pass(n);
    ++n;
  } while (n < min_passes || now_ns() < deadline);
  return n;
}

// ---------------------------------------------------------------------------
// Single-threaded replay of the worker's burst loop through public calls on
// a clone of `primary`'s pipeline: PHV load, InitModule::execute_burst,
// CompiledPipeline::execute_run and Pipeline::process_burst, each timed.
struct ReplayStats {
  uint64_t packets = 0;
  double phv_load_ns = 0;   // per packet
  double init_ns = 0;       // per packet
  double fused_ns = 0;      // per fused-path packet
  double generic_ns = 0;    // per generic-path packet
  double interp_ns = 0;     // per packet, whole replay interpreted
  double build_ms = 0;      // CompiledPipeline::build
  double run_len_mean = 0;  // packets per compiled run
  double multi_query_frac = 0;  // packets activating >= 2 queries
  uint64_t fused_pkts = 0, generic_pkts = 0, interp_pkts = 0;
};

ReplayStats replay_pipeline(const newton::NewtonSwitch& primary,
                            const std::vector<newton::Packet>& pkts,
                            std::size_t max_pkts, uint64_t window_ns);

// Wall time of Controller install + remove of a small probe query on a
// loaded switch (the runtime must be stopped).
struct ControlProbe {
  double install_ms_p50 = 0;
  double withdraw_ms_p50 = 0;
};
ControlProbe probe_controller(newton::NewtonSwitch& sw, std::size_t cycles);

// Runtime-side totals summed over the traced passes of a sharded-runtime
// workload, turned into the runtime/compile/dataplane/analyzer per-layer
// metrics by emit_runtime_layers.
struct RuntimeTotals {
  uint64_t passes = 0;
  uint64_t packets = 0;
  uint64_t demux_pkts = 0;  // packets inside runtime.process spans
  uint64_t stalls = 0, recompiles = 0, reports = 0;
  uint64_t jit_pkts = 0, fused_pkts = 0;
  uint64_t hash_lanes = 0, cse_lanes = 0, prefetch = 0;
  std::vector<double> barrier_ms, mutation_barrier_ms, finish_ms;
  std::vector<double> analyzer_ns;  // per report, one sample per pass

  void add(const newton::RuntimeStats& st);
};
void emit_runtime_layers(const RuntimeTotals& t, const Tracer& tr,
                         Results& r);
void emit_replay(const ReplayStats& s, Results& r);

// Feed `recs` to a fresh Analyzer carrying `live`'s qid registrations and
// return the wall time per report.
double analyzer_ns_per_report(const newton::Analyzer& live,
                              const std::vector<newton::ReportRecord>& recs);

// ---------------------------------------------------------------------------
// The pass loop shared by the ShardedRuntime workloads (q135-trace,
// detect-pcap, tenant-churn).  Each pass builds the switch and runtime
// (timed as set-up together with `setup`), runs `drive` and finish() (timed
// as the pass), checks the delivered reports against `want`, and books the
// samples; the first traced pass also replays `packets` through a pipeline
// clone and probes the Controller.

// What a workload's drive step reports about one pass.
struct Drive {
  std::vector<double> delays_ms;  // one per closed window, in order
  std::vector<char> mutating;     // per window: its barrier applied a batch
  uint64_t demux_pkts = 0;        // packets inside runtime.process spans
  uint64_t failed = 0;            // workload-side failures (source drops)
};

struct RuntimeWorkload {
  const char* name = "";
  std::size_t stages = 64;
  newton::RuntimeOptions options;  // shards, shard key, queue capacity
  uint64_t window_ns = 0;
  const std::vector<newton::ReportRecord>* want = nullptr;  // oracle
  const std::vector<newton::Packet>* packets = nullptr;     // for the replay
  std::size_t installs = 0;  // installs per pass, counted as attempted
  // Install the initial queries and open per-pass inputs.
  std::function<void(newton::ShardedRuntime&, newton::telemetry::Registry&)>
      setup;
  // Offer the whole input; the tracer is on in traced passes.
  std::function<Drive(newton::ShardedRuntime&, Tracer&)> drive;
  // Optional: runs after every pass whose reports passed the gate.
  std::function<void(const std::vector<newton::ReportRecord>&,
                     const newton::Analyzer&)>
      checked;
};

// Run the passes and fill the end-to-end metrics and the runtime, compile,
// dataplane, analyzer and core per-layer metrics.
void run_runtime_workload(const Options& o, const RuntimeWorkload& w,
                          Tracer& tr, Results& r);

// Per-layer metric names, units and directions (must match BENCHMARK.json;
// the self-check verifies it).  Workloads that do not exercise a layer
// report 0 for its metrics.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

// One workload entry point per file.
void run_q135(const Options& o, Results& r);
void run_detect(const Options& o, Results& r);
void run_churn(const Options& o, Results& r);
void run_fleet(const Options& o, Results& r);

// Recompute detect-pcap's table of pinned inputs and print it as C++.
int pin_detect_inputs(const Options& o);

}  // namespace perfbench
