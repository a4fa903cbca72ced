#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <tuple>

#include "core/controller.h"
#include "core/query.h"

namespace perfbench {

using newton::Packet;
using newton::ReportRecord;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------

uint32_t Tracer::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  agg_.emplace_back();
  ids_.emplace(name, id);
  return id;
}

uint64_t Tracer::begin(uint32_t name) {
  const uint64_t id = next_id_++;
  const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back({id, name, now_ns(), parent});
  return id;
}

void Tracer::end(uint64_t id) {
  const uint64_t e = now_ns();
  // Spans nest: the one closing is the innermost open span.
  if (stack_.empty() || stack_.back().id != id) return;
  const Open o = stack_.back();
  stack_.pop_back();
  close(o.name, o.id, o.parent, o.start_ns, e);
}

void Tracer::add(uint32_t name, uint64_t start_ns, uint64_t end_ns) {
  const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  close(name, next_id_++, parent, start_ns, end_ns);
}

void Tracer::close(uint32_t name, uint64_t id, uint64_t parent, uint64_t s,
                   uint64_t e) {
  const uint64_t d = e > s ? e - s : 0;
  agg_[name].count += 1;
  agg_[name].total_ns += d;
  if (spans_.size() < kMaxStoredSpans)
    spans_.push_back({id, parent, name, s, e});
  else
    ++dropped_;
}

double Tracer::total_ns(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? 0.0
                          : static_cast<double>(agg_[it->second].total_ns);
}

uint64_t Tracer::count(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? 0 : agg_[it->second].count;
}

bool Tracer::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"dropped\": %llu, \"names\": [",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < names_.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", names_[i].c_str());
  std::fprintf(f, "],\n \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  [%llu, %llu, %u, %llu, %llu]%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

void Results::prop(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  properties.emplace_back(name, buf);
}

void gate_fail(const std::string& workload, uint64_t window,
               const std::string& what) {
  std::fflush(stdout);
  const std::string w =
      window == kAllWindows ? "all" : std::to_string(window);
  std::fprintf(stderr, "output gate FAILED: workload %s, window %s: %s\n",
               workload.c_str(), w.c_str(), what.c_str());
  std::exit(3);
}

namespace {

auto tie_of(const ReportRecord& r) {
  return std::tie(r.ts_ns, r.qid, r.switch_id, r.oper_keys, r.hash_result,
                  r.state_result, r.global_result, r.deferred, r.next_slice);
}

bool less(const ReportRecord& a, const ReportRecord& b) {
  return tie_of(a) < tie_of(b);
}

bool same(const ReportRecord& a, const ReportRecord& b) {
  return tie_of(a) == tie_of(b);
}

}  // namespace

void check_reports(const std::string& workload, std::vector<ReportRecord> got,
                   std::vector<ReportRecord> want, uint64_t window_ns) {
  std::sort(got.begin(), got.end(), less);
  std::sort(want.begin(), want.end(), less);
  const std::size_t n = std::min(got.size(), want.size());
  std::size_t i = 0;
  while (i < n && same(got[i], want[i])) ++i;
  if (i == n && got.size() == want.size()) return;
  // Records sort by timestamp first, so the first difference lies in the
  // earliest window that differs.
  const uint64_t ts = i < n ? std::min(got[i].ts_ns, want[i].ts_ns)
                            : (i < got.size() ? got[i] : want[i]).ts_ns;
  const uint64_t w = window_ns ? ts / window_ns : 0;
  std::size_t gw = 0, ww = 0;
  for (const auto& r : got) gw += (window_ns ? r.ts_ns / window_ns : 0) == w;
  for (const auto& r : want) ww += (window_ns ? r.ts_ns / window_ns : 0) == w;
  gate_fail(workload, w,
            "reports differ from the single-threaded oracle (" +
                std::to_string(gw) + " delivered vs " + std::to_string(ww) +
                " expected in this window; " + std::to_string(got.size()) +
                " vs " + std::to_string(want.size()) + " in total)");
}

std::vector<std::size_t> window_crossings(const std::vector<Packet>& p,
                                          uint64_t window_ns) {
  std::vector<std::size_t> out;
  uint64_t cur = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const uint64_t e = window_ns ? p[i].ts_ns / window_ns : 0;
    if (e != cur) {
      out.push_back(i);
      cur = e;
    }
  }
  return out;
}

newton::Trace tile(const newton::Trace& base, std::size_t target,
                   uint64_t window_ns) {
  newton::Trace out;
  out.name = base.name;
  if (base.packets.empty()) return out;
  const uint64_t span = base.packets.back().ts_ns + 1;
  const uint64_t period = (span + window_ns - 1) / window_ns * window_ns;
  out.packets.reserve(target);
  for (uint64_t k = 0; out.packets.size() < target; ++k)
    for (std::size_t i = 0; i < base.size() && out.packets.size() < target;
         ++i) {
      Packet p = base.packets[i];
      p.ts_ns += k * period;
      out.packets.push_back(p);
    }
  return out;
}

void drive_runtime(newton::ShardedRuntime& rt, const std::vector<Packet>& pkts,
                   const std::vector<std::size_t>& crossings,
                   const std::vector<std::size_t>& marks,
                   const std::function<void(std::size_t)>& on_mark,
                   Tracer& tr, std::vector<double>& boundary_ms,
                   std::vector<uint64_t>* boundary_end_ns) {
  constexpr std::size_t kChunk = 64;
  const uint32_t s_proc = tr.intern("runtime.process");
  const uint32_t s_bar = tr.intern("runtime.barrier");
  const std::size_t n = pkts.size();
  std::size_t ci = 0, mi = 0, pos = 0;
  while (pos < n) {
    const std::size_t next_c = ci < crossings.size() ? crossings[ci] : n;
    const std::size_t next_m = mi < marks.size() ? marks[mi] : n;
    const std::size_t stop = std::min(next_c, next_m);
    if (!tr.on) {
      for (std::size_t i = pos; i < stop; ++i) rt.process(pkts[i]);
    } else {
      for (std::size_t i = pos; i < stop; i += kChunk) {
        const std::size_t e = std::min(stop, i + kChunk);
        const uint64_t id = tr.begin(s_proc);
        for (std::size_t j = i; j < e; ++j) rt.process(pkts[j]);
        tr.end(id);
      }
    }
    pos = stop;
    if (pos >= n) break;
    if (next_m == pos) {  // a mark at a boundary runs before the barrier
      on_mark(mi++);
      continue;
    }
    const uint64_t a = now_ns();
    const uint64_t id = tr.on ? tr.begin(s_bar) : 0;
    rt.process(pkts[pos]);
    if (id != 0) tr.end(id);
    const uint64_t b = now_ns();
    boundary_ms.push_back(static_cast<double>(b - a) / 1e6);
    if (boundary_end_ns != nullptr) boundary_end_ns->push_back(b);
    ++ci;
    ++pos;
  }
}

void Samples::add_delays(const std::vector<double>& ms) {
  if (ms.empty()) return;
  delay_p50.push_back(percentile(ms, 0.50));
  delay_p95.push_back(percentile(ms, 0.95));
  delay_samples += ms.size();
}

void emit_end_to_end(const Samples& s, Results& r) {
  r.set("pps", median(s.pps));
  r.set("setup_s", median(s.setup_s));
  r.set("report_delay_ms_p50", median(s.delay_p50));
  r.set("workload.report_delay_ms_p95", median(s.delay_p95));
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("workload.fail_frac",
        r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0);
  if (!s.pps_traced.empty() && !s.pps.empty())
    r.set("trace.overhead_frac", 1.0 - median(s.pps_traced) / median(s.pps));
  r.prop("passes", static_cast<double>(s.pps.size() + s.pps_traced.size()));
  r.prop("pps_pass_q1", percentile(s.pps, 0.25));
  r.prop("pps_pass_q3", percentile(s.pps, 0.75));
  r.prop("setup_s_pass_q1", percentile(s.setup_s, 0.25));
  r.prop("setup_s_pass_q3", percentile(s.setup_s, 0.75));
  r.prop("report_delay_samples", static_cast<double>(s.delay_samples));
  r.prop("report_delay_ms_p95", median(s.delay_p95));
}

void RuntimeTotals::add(const newton::RuntimeStats& st) {
  ++passes;
  packets += st.packets_in;
  stalls += st.backpressure_stalls;
  recompiles += st.jit_recompiles;
  reports += st.reports;
  for (const newton::WorkerStats& w : st.workers) {
    jit_pkts += w.jit_packets;
    fused_pkts += w.jit_fused_packets;
    hash_lanes += w.jit_hash_lanes;
    cse_lanes += w.jit_hash_cse_lanes;
    prefetch += w.jit_prefetch_issued;
  }
}

namespace {
double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
}  // namespace

void emit_runtime_layers(const RuntimeTotals& t, const Tracer& tr,
                         Results& r) {
  const auto n = static_cast<double>(t.packets);
  r.set("runtime.demux_ns_per_pkt",
        ratio(tr.total_ns("runtime.process"), static_cast<double>(t.demux_pkts)));
  r.set("runtime.ring_stalls_per_kpkt", ratio(1000.0 * t.stalls, n));
  r.set("runtime.barrier_ms_p50", median(t.barrier_ms));
  r.set("runtime.mutation_barrier_ms_p50", median(t.mutation_barrier_ms));
  r.set("runtime.jit_recompiles",
        ratio(static_cast<double>(t.recompiles), static_cast<double>(t.passes)));
  r.set("runtime.finish_ms", median(t.finish_ms));
  r.set("compile.fused_pkt_frac", ratio(t.fused_pkts, n));
  r.set("compile.generic_pkt_frac", ratio(t.jit_pkts - t.fused_pkts, n));
  r.set("dataplane.interp_pkt_frac", n > 0 ? 1.0 - ratio(t.jit_pkts, n) : 0.0);
  r.set("compile.hash_lanes_per_pkt", ratio(t.hash_lanes, n));
  r.set("compile.prefetch_per_pkt", ratio(t.prefetch, n));
  r.set("compile.cse_saved_frac",
        ratio(t.cse_lanes, static_cast<double>(t.hash_lanes + t.cse_lanes)));
  r.set("analyzer.reports_per_kpkt", ratio(1000.0 * t.reports, n));
  r.set("analyzer.ns_per_report", median(t.analyzer_ns));
  r.prop("fused_pkt_share", ratio(t.fused_pkts, n));
  r.prop("generic_pkt_share", ratio(t.jit_pkts - t.fused_pkts, n));
  r.prop("interpreted_pkt_share", n > 0 ? 1.0 - ratio(t.jit_pkts, n) : 0.0);
  r.prop("delivered_reports_per_kpkt", ratio(1000.0 * t.reports, n));
}

void emit_replay(const ReplayStats& s, Results& r) {
  r.set("core.phv_load_ns_per_pkt", s.phv_load_ns);
  r.set("core.init_ns_per_pkt", s.init_ns);
  r.set("compile.fused_ns_per_pkt", s.fused_ns);
  r.set("compile.generic_ns_per_pkt", s.generic_ns);
  r.set("compile.run_len_mean", s.run_len_mean);
  r.set("compile.build_ms", s.build_ms);
  r.set("dataplane.interp_ns_per_pkt", s.interp_ns);
  r.set("workload.multi_query_frac", s.multi_query_frac);
}

double analyzer_ns_per_report(const newton::Analyzer& live,
                              const std::vector<ReportRecord>& recs) {
  if (recs.empty()) return 0.0;
  newton::Analyzer an;
  for (const auto& [qid, owner] : live.qid_owners())
    an.register_qid_any(qid, owner.first, owner.second);
  const uint64_t a = now_ns();
  for (const ReportRecord& rec : recs) an.report(rec);
  return static_cast<double>(now_ns() - a) / static_cast<double>(recs.size());
}

void run_runtime_workload(const Options& o, const RuntimeWorkload& w,
                          Tracer& tr, Results& r) {
  Samples s;
  RuntimeTotals tot;
  const uint32_t s_finish = tr.intern("runtime.finish");
  bool replayed = false;

  const auto pass = [&](std::size_t i) {
    const bool traced = o.trace && i % 2 == 1;
    newton::telemetry::Registry reg;
    GateSink gate(o.plant_drop);
    gate.records.reserve(w.want->size() + 1);
    newton::Analyzer an;

    const uint64_t s0 = now_ns();
    newton::NewtonSwitch sw(1, w.stages, nullptr);
    newton::RuntimeOptions ro = w.options;
    ro.record_snapshots = false;
    ro.registry = &reg;
    newton::ShardedRuntime rt(sw, ro, &an);
    rt.set_report_sink(&gate);
    w.setup(rt, reg);
    rt.start();
    const uint64_t s1 = now_ns();

    tr.on = traced;
    const Drive d = w.drive(rt, tr);
    const uint64_t f0 = now_ns();
    {
      Scope sc(tr, s_finish);
      rt.finish();
    }
    const uint64_t t1 = now_ns();
    tr.on = false;

    check_reports(w.name, gate.records, *w.want, w.window_ns);
    if (w.checked) w.checked(gate.records, an);
    const newton::RuntimeStats st = rt.stats();
    tot.add(st);
    const double pps = static_cast<double>(st.packets_in) * 1e9 /
                       static_cast<double>(t1 - s1);
    if (!traced) {
      s.pps.push_back(pps);
      s.setup_s.push_back(static_cast<double>(s1 - s0) / 1e9);
      s.add_delays(d.delays_ms);
      r.attempted += st.packets_in + w.installs;
      r.failed += st.abandoned_packets + st.installs_rejected + d.failed;
      return;
    }
    s.pps_traced.push_back(pps);
    tot.demux_pkts += d.demux_pkts;
    for (std::size_t b = 0; b < d.delays_ms.size(); ++b) {
      const bool m = b < d.mutating.size() && d.mutating[b];
      (m ? tot.mutation_barrier_ms : tot.barrier_ms).push_back(d.delays_ms[b]);
    }
    tot.finish_ms.push_back(static_cast<double>(t1 - f0) / 1e6);
    tot.analyzer_ns.push_back(analyzer_ns_per_report(an, gate.records));
    if (!replayed) {
      replayed = true;
      emit_replay(replay_pipeline(sw, *w.packets, 1'000'000, w.window_ns), r);
      const ControlProbe cp = probe_controller(sw, 50);
      r.set("core.install_ms_p50", cp.install_ms_p50);
      r.set("core.withdraw_ms_p50", cp.withdraw_ms_p50);
    }
  };
  run_passes(o.tiny ? 0.0 : o.seconds, o.trace ? 2 : 1, pass);

  emit_end_to_end(s, r);
  emit_runtime_layers(tot, tr, r);
}

ControlProbe probe_controller(newton::NewtonSwitch& sw, std::size_t cycles) {
  newton::Controller ctl(sw);
  std::vector<double> ins, rem;
  for (std::size_t i = 0; i < cycles; ++i) {
    newton::QueryBuilder b("perfbench_probe" + std::to_string(i));
    b.sketch(2, 256);
    b.filter(newton::Predicate{}.where(newton::Field::DstPort,
                                       newton::Cmp::Eq, 61'000 + i % 512))
        .map({newton::Field::SrcIp})
        .reduce({newton::Field::SrcIp}, newton::Agg::Sum)
        .when(newton::Cmp::Ge, 1'000'000'000u);
    newton::Query q = b.build();
    q.row_partitions = 1;
    const uint64_t a = now_ns();
    try {
      ctl.install(q);
    } catch (const std::exception&) {
      break;  // switch full: report what was measured
    }
    const uint64_t m = now_ns();
    ctl.remove(q.name);
    const uint64_t e = now_ns();
    ins.push_back(static_cast<double>(m - a) / 1e6);
    rem.push_back(static_cast<double>(e - m) / 1e6);
  }
  return {median(ins), median(rem)};
}

// ---------------------------------------------------------------------------

const std::vector<MetricDef> kEndToEnd = {
    {"pps", "1/s"},
    {"setup_s", "s"},
    {"report_delay_ms_p50", "ms"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"ingest.pull_ns_per_pkt", "ns"},
    {"ingest.skipped_frac", "frac"},
    {"runtime.demux_ns_per_pkt", "ns"},
    {"runtime.ring_stalls_per_kpkt", "count"},
    {"runtime.barrier_ms_p50", "ms"},
    {"runtime.mutation_barrier_ms_p50", "ms"},
    {"runtime.jit_recompiles", "count"},
    {"runtime.finish_ms", "ms"},
    {"core.phv_load_ns_per_pkt", "ns"},
    {"core.init_ns_per_pkt", "ns"},
    {"core.install_ms_p50", "ms"},
    {"core.withdraw_ms_p50", "ms"},
    {"core.switch_ns_per_hop", "ns"},
    {"compile.fused_ns_per_pkt", "ns"},
    {"compile.fused_pkt_frac", "frac"},
    {"compile.generic_ns_per_pkt", "ns"},
    {"compile.generic_pkt_frac", "frac"},
    {"compile.run_len_mean", "count"},
    {"compile.build_ms", "ms"},
    {"compile.hash_lanes_per_pkt", "count"},
    {"compile.prefetch_per_pkt", "count"},
    {"compile.cse_saved_frac", "frac"},
    {"dataplane.interp_ns_per_pkt", "ns"},
    {"dataplane.interp_pkt_frac", "frac"},
    {"net.route_us_per_pkt", "us"},
    {"net.hop_us", "us"},
    {"net.hops_per_pkt", "count"},
    {"net.sp_bytes_per_pkt", "B"},
    {"net.deferred_frac", "frac"},
    {"net.agg_ns_per_report", "ns"},
    {"net.agg_compression", "ratio"},
    {"net.place_ms_p50", "ms"},
    {"net.replace_scope_frac", "frac"},
    {"net.reconverge_ms_p50", "ms"},
    {"net.reconverge_ms_p95", "ms"},
    {"analyzer.ns_per_report", "ns"},
    {"analyzer.reports_per_kpkt", "count"},
    {"intent.install_ms_p50", "ms"},
    {"intent.install_ms_p95", "ms"},
    {"detect.precision", "frac"},
    {"detect.recall", "frac"},
    {"workload.report_delay_ms_p95", "ms"},
    {"workload.fail_frac", "frac"},
    {"workload.multi_query_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

}  // namespace perfbench
