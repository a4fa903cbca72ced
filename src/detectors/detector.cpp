#include "detectors/detector.h"

#include <algorithm>

#include "analyzer/ground_truth.h"
#include "core/dump.h"
#include "core/window.h"
#include "packet/fields.h"

namespace newton::detectors {

const ValueSink::ValueMap ValueSink::kEmpty;

void ValueSink::report(const ReportRecord& r) {
  const uint64_t w = window_of(r.ts_ns, window_ns_);
  uint32_t& v = by_qid_[r.qid][WindowKey{w, r.oper_keys}];
  // global_result is the cross-row CM minimum — the sketch's estimate of
  // the running aggregate (state_result is a single row's value, an
  // overestimate under collisions).
  v = std::max(v, r.global_result);
}

const ValueSink::ValueMap& ValueSink::values(uint16_t qid) const {
  const auto it = by_qid_.find(qid);
  return it == by_qid_.end() ? kEmpty : it->second;
}

const Detector* find_detector(const std::vector<Detector>& lib,
                              const std::string& id) {
  for (const Detector& d : lib)
    if (d.id == id) return &d;
  return nullptr;
}

namespace {

KeyArray key1(Field f, uint32_t v) {
  KeyArray k{};
  k[index(f)] = v;
  return k;
}

KeySet union_windows(const std::map<uint64_t, KeySet>& by_window) {
  KeySet out;
  for (const auto& [w, keys] : by_window) out.insert(keys.begin(), keys.end());
  return out;
}

Evaluation make_eval(const KeySet& detected, const KeySet& truth,
                     const KeySet& universe) {
  Evaluation e;
  e.acc = score(detected, truth, universe);
  e.detected_keys = detected.size();
  e.truth_keys = truth.size();
  return e;
}

// Key-set detector evaluation: analyzer's deduplicated keys for one branch
// against the exact reference run of the same chain.
Evaluation eval_branch(const EvalInput& in, const Query& q,
                       std::size_t branch) {
  const QueryTruth gt = exact_truth(q, in.trace);
  return make_eval(in.analyzer.detected(q.name, branch),
                   gt.passing_union(branch),
                   union_windows(gt.branches[branch].universe));
}

Predicate tcp_with_flags(uint32_t flags) {
  return Predicate{}
      .where(Field::Proto, Cmp::Eq, kProtoTcp)
      .where(Field::TcpFlags, Cmp::Eq, flags);
}

// Exact per-window aggregates of one masked field over the raw trace:
// window -> key -> count (or PktLen sum) — the reference signal for the
// value detectors.
using WindowValues = std::map<uint64_t, std::map<uint32_t, uint64_t>>;

WindowValues exact_window_values(const Trace& t, Field f, uint32_t mask,
                                 uint64_t window_ns, bool bytes) {
  WindowValues out;
  for (const Packet& p : t.packets) {
    const uint64_t w = window_of(p.ts_ns, window_ns);
    out[w][p.get(f) & mask] += bytes ? p.get(Field::PktLen) : 1;
  }
  return out;
}

// Pivot window-major values into per-key window series, flooring sub-floor
// windows to zero (the detector's own definition of "no signal": the data
// plane only reports once the aggregate crosses the floor).
std::map<uint32_t, std::map<uint64_t, uint64_t>> by_key_floored(
    const WindowValues& wv, uint64_t floor) {
  std::map<uint32_t, std::map<uint64_t, uint64_t>> out;
  for (const auto& [w, keys] : wv)
    for (const auto& [k, v] : keys)
      if (v >= floor) out[k][w] = v;
  return out;
}

// The EWMA anomaly rule, shared verbatim between the exact reference and
// the data-plane value extraction: seed the mean with the first window in
// [w_lo, w_hi], then flag any later window whose (floored) volume exceeds
// mult * mean.  Missing windows are zero volume.
bool ewma_flags_key(const std::map<uint64_t, uint64_t>& series, uint64_t w_lo,
                    uint64_t w_hi, double alpha, double mult) {
  bool first = true;
  double mean = 0;
  for (uint64_t w = w_lo; w <= w_hi; ++w) {
    const auto it = series.find(w);
    const double v = it == series.end() ? 0.0 : static_cast<double>(it->second);
    if (first) {
      mean = v;
      first = false;
      continue;
    }
    if (v > 0 && v > mult * mean) return true;
    mean = alpha * v + (1 - alpha) * mean;
  }
  return false;
}

// Data-plane view of a value query: window -> key -> end-of-window
// aggregate, from the ValueSink's per-report maxima (Sum aggregates are
// monotone within a window, so the max state_result is the final value).
WindowValues sink_window_values(const EvalInput& in, const std::string& query,
                                Field f) {
  WindowValues out;
  for (const auto& [qid, owner] : in.analyzer.qid_owners()) {
    if (owner.first != query) continue;
    for (const auto& [wk, v] : in.values.values(qid))
      out[wk.window][wk.key[index(f)]] =
          std::max<uint64_t>(out[wk.window][wk.key[index(f)]], v);
  }
  return out;
}

std::pair<uint64_t, uint64_t> trace_window_range(const Trace& t,
                                                 uint64_t window_ns) {
  if (t.packets.empty()) return {0, 0};
  return {window_of(t.packets.front().ts_ns, window_ns),
          window_of(t.packets.back().ts_ns, window_ns)};
}

KeySet ewma_detect(const WindowValues& wv, Field f, uint64_t floor,
                   double alpha, double mult, uint64_t w_lo, uint64_t w_hi) {
  KeySet out;
  for (const auto& [k, series] : by_key_floored(wv, floor))
    if (ewma_flags_key(series, w_lo, w_hi, alpha, mult))
      out.insert(key1(f, k));
  return out;
}

// Total floored volume per key, the top-K ranking signal.
std::map<uint32_t, uint64_t> floored_totals(const WindowValues& wv,
                                            uint64_t floor) {
  std::map<uint32_t, uint64_t> out;
  for (const auto& [k, series] : by_key_floored(wv, floor))
    for (const auto& [w, v] : series) out[k] += v;
  return out;
}

KeySet topk_keys(const std::map<uint32_t, uint64_t>& totals, Field f,
                 std::size_t k) {
  std::vector<std::pair<uint64_t, uint32_t>> ranked;
  ranked.reserve(totals.size());
  for (const auto& [key, total] : totals) ranked.push_back({total, key});
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  KeySet out;
  for (std::size_t i = 0; i < std::min(k, ranked.size()); ++i)
    out.insert(key1(f, ranked[i].second));
  return out;
}

std::string render_chain(const Query& q) {
  std::string dsl = query_to_dsl(q);
  std::replace(dsl.begin(), dsl.end(), '\n', ' ');
  while (!dsl.empty() && dsl.back() == ' ') dsl.pop_back();
  return dsl;
}

Detector finish(Detector d) {
  d.chain = render_chain(d.query);
  return d;
}

}  // namespace

std::vector<Detector> detector_library(const DetectorParams& p) {
  std::vector<Detector> lib;
  const auto common = [&p](QueryBuilder& b) -> QueryBuilder& {
    return b.sketch(p.sketch_depth, p.sketch_width).window_ms(p.window_ms);
  };

  {  // 1. Port scanner: many distinct probed ports from one source.
    QueryBuilder b("det_port_scan");
    common(b)
        .filter(tcp_with_flags(kTcpSyn))
        .map({Field::SrcIp, Field::DstPort})
        .distinct({Field::SrcIp, Field::DstPort})
        .map({Field::SrcIp})
        .reduce({Field::SrcIp}, Agg::Sum)
        .when(Cmp::Ge, p.scan_ports_th);
    Detector d;
    d.id = "port_scan";
    d.intent = "sources probing many distinct destination ports";
    d.query = b.build();
    d.evaluate = [q = d.query](const EvalInput& in) {
      return eval_branch(in, q, 0);
    };
    lib.push_back(finish(std::move(d)));
  }

  {  // 2. Superspreader: one source contacting many distinct destinations.
    QueryBuilder b("det_superspreader");
    common(b)
        .map({Field::SrcIp, Field::DstIp})
        .distinct({Field::SrcIp, Field::DstIp})
        .map({Field::SrcIp})
        .reduce({Field::SrcIp}, Agg::Sum)
        .when(Cmp::Ge, p.spread_fanout_th);
    Detector d;
    d.id = "superspreader";
    d.intent = "sources fanning out to many distinct destinations";
    d.query = b.build();
    d.evaluate = [q = d.query](const EvalInput& in) {
      return eval_branch(in, q, 0);
    };
    lib.push_back(finish(std::move(d)));
  }

  {  // 3. SYN flood: SYN-heavy destinations that are not ACK-heavy — the
     //    branch difference runs on the analyzer, mirrored exactly in truth.
    QueryBuilder b("det_syn_flood");
    common(b)
        .branch("syn")
        .filter(tcp_with_flags(kTcpSyn))
        .map({Field::DstIp})
        .reduce({Field::DstIp}, Agg::Sum)
        .when(Cmp::Ge, p.syn_th)
        .branch("ack")
        .filter(tcp_with_flags(kTcpAck))
        .map({Field::DstIp})
        .reduce({Field::DstIp}, Agg::Sum)
        .when(Cmp::Ge, p.ack_th);
    Detector d;
    d.id = "syn_flood";
    d.intent = "destinations with SYN volume not matched by ACK volume";
    d.query = b.build();
    d.evaluate = [q = d.query](const EvalInput& in) {
      const QueryTruth gt = exact_truth(q, in.trace);
      KeySet detected = in.analyzer.detected(q.name, 0);
      for (const KeyArray& k : in.analyzer.detected(q.name, 1))
        detected.erase(k);
      KeySet truth = gt.passing_union(0);
      for (const KeyArray& k : gt.passing_union(1)) truth.erase(k);
      return make_eval(detected, truth,
                       union_windows(gt.branches[0].universe));
    };
    lib.push_back(finish(std::move(d)));
  }

  {  // 4. EWMA volume anomaly: per-destination packet volume jumping past
     //    mult x its smoothed history.  The chain exports per-window
     //    volumes; the EWMA recurrence runs in software on both the
     //    reported values and the exact reference.
    QueryBuilder b("det_ewma_volume");
    common(b)
        .map({Field::DstIp})
        .reduce({Field::DstIp}, Agg::Sum)
        // Streaming: the EWMA needs per-window volumes, not one crossing
        // event, so every packet past the floor exports the running sum.
        .when_stream(Cmp::Ge, p.ewma_floor);
    Detector d;
    d.id = "ewma_volume";
    d.intent = "destinations whose packet volume spikes vs EWMA history";
    d.query = b.build();
    d.evaluate = [q = d.query, p](const EvalInput& in) {
      const auto [w_lo, w_hi] = trace_window_range(in.trace, q.window_ns);
      const KeySet detected =
          ewma_detect(sink_window_values(in, q.name, Field::DstIp),
                      Field::DstIp, p.ewma_floor, p.ewma_alpha, p.ewma_mult,
                      w_lo, w_hi);
      const WindowValues exact = exact_window_values(
          in.trace, Field::DstIp, 0xffffffffu, q.window_ns, false);
      const KeySet truth = ewma_detect(exact, Field::DstIp, p.ewma_floor,
                                       p.ewma_alpha, p.ewma_mult, w_lo, w_hi);
      KeySet universe;
      for (const auto& [k, series] : by_key_floored(exact, p.ewma_floor))
        universe.insert(key1(Field::DstIp, k));
      return make_eval(detected, truth, universe);
    };
    lib.push_back(finish(std::move(d)));
  }

  {  // 5. Top-K ports: heaviest destination ports by floored per-window
     //    volume, ranked in software from the reported aggregates.
    QueryBuilder b("det_topk_ports");
    common(b)
        .map({Field::DstPort})
        .reduce({Field::DstPort}, Agg::Sum)
        // Streaming: ranking needs the actual per-window volumes.
        .when_stream(Cmp::Ge, p.topk_floor);
    Detector d;
    d.id = "topk_ports";
    d.intent = "the K heaviest destination ports";
    d.query = b.build();
    d.evaluate = [q = d.query, p](const EvalInput& in) {
      const KeySet detected =
          topk_keys(floored_totals(sink_window_values(in, q.name,
                                                      Field::DstPort),
                                   p.topk_floor),
                    Field::DstPort, p.topk_k);
      const auto exact_totals = floored_totals(
          exact_window_values(in.trace, Field::DstPort, 0xffffffffu,
                              q.window_ns, false),
          p.topk_floor);
      const KeySet truth = topk_keys(exact_totals, Field::DstPort, p.topk_k);
      KeySet universe;
      for (const auto& [k, total] : exact_totals)
        universe.insert(key1(Field::DstPort, k));
      return make_eval(detected, truth, universe);
    };
    lib.push_back(finish(std::move(d)));
  }

  {  // 6. Hierarchical-prefix heavy hitters: byte volume per source /8,
     //    /16 and /24, one branch per level (KeySel masks).
    QueryBuilder b("det_prefix_hh");
    common(b)
        .branch("hh8")
        .map({KeySel(Field::SrcIp, 0xff000000u)})
        .reduce({KeySel(Field::SrcIp, 0xff000000u)}, Agg::Sum,
                /*sum_pkt_len=*/true)
        .when(Cmp::Ge, p.hh_bytes_th8)
        .branch("hh16")
        .map({KeySel(Field::SrcIp, 0xffff0000u)})
        .reduce({KeySel(Field::SrcIp, 0xffff0000u)}, Agg::Sum,
                /*sum_pkt_len=*/true)
        .when(Cmp::Ge, p.hh_bytes_th16)
        .branch("hh24")
        .map({KeySel(Field::SrcIp, 0xffffff00u)})
        .reduce({KeySel(Field::SrcIp, 0xffffff00u)}, Agg::Sum,
                /*sum_pkt_len=*/true)
        .when(Cmp::Ge, p.hh_bytes_th24);
    Detector d;
    d.id = "prefix_hh";
    d.intent = "byte-heavy source prefixes at /8, /16 and /24";
    d.query = b.build();
    d.evaluate = [q = d.query](const EvalInput& in) {
      Evaluation sum;
      for (std::size_t br = 0; br < q.branches.size(); ++br) {
        const Evaluation e = eval_branch(in, q, br);
        sum.acc.tp += e.acc.tp;
        sum.acc.fp += e.acc.fp;
        sum.acc.fn += e.acc.fn;
        sum.acc.tn += e.acc.tn;
        sum.detected_keys += e.detected_keys;
        sum.truth_keys += e.truth_keys;
      }
      return sum;
    };
    lib.push_back(finish(std::move(d)));
  }

  return lib;
}

}  // namespace newton::detectors
