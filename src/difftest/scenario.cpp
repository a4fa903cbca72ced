#include "difftest/scenario.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/compose.h"
#include "core/dump.h"
#include "core/parse_query.h"
#include "trace/attacks.h"

namespace newton::difftest {

namespace {

constexpr char kHeader[] = "newton-difftest-scenario v1";

// Sizing regimes (docs/difftest.md).  Scenarios that compare executions
// with *different* sketch contents per instance (per-shard / per-ingress
// Bloom+CM replicas) must make collisions vanishingly unlikely, or sketch
// noise would masquerade as divergence; single-instance comparisons share
// the exact collision pattern and may stress small sketches instead.
constexpr std::size_t kWideWidth = 1u << 16;
constexpr std::size_t kWideDepth = 4;
constexpr std::size_t kWideMaxFlows = 64;
constexpr std::size_t kWideMaxQueries = 2;
constexpr std::size_t kCalibratedWidth = 1u << 15;

bool has_kind(const Query& q, PrimitiveKind k) {
  for (const BranchDef& b : q.branches)
    for (const Primitive& p : b.primitives)
      if (p.kind == k) return true;
  return false;
}

bool is_stateful(const Query& q) {
  return has_kind(q, PrimitiveKind::Distinct) ||
         has_kind(q, PrimitiveKind::Reduce);
}

}  // namespace

std::string query_name(std::size_t index) {
  // Appended, not `"q" + std::to_string(...)`: gcc 12 reports a false
  // -Wrestrict inside libstdc++ for that form in optimized builds.
  return std::string("q").append(std::to_string(index));
}

Trace TraceSpec::build() const {
  TraceProfile p = profile == "mawi" ? mawi_like(seed) : caida_like(seed);
  p.num_flows = flows;
  p.seed = seed;
  Trace t = generate_trace(p);
  std::mt19937 rng(seed * 7919u + 17u);
  for (const InjectionSpec& inj : injections) {
    if (inj.kind == "syn_flood")
      inject_syn_flood(t, inj.a, inj.n, std::max<std::size_t>(1, inj.m),
                       inj.at_ns, rng);
    else if (inj.kind == "udp_flood")
      inject_udp_flood(t, inj.a, inj.n, std::max<std::size_t>(1, inj.m),
                       inj.at_ns, rng);
    else if (inj.kind == "port_scan")
      inject_port_scan(t, inj.a, inj.b, inj.n, inj.at_ns, rng);
    else if (inj.kind == "ssh_brute")
      inject_ssh_brute(t, inj.a, inj.b, inj.n, inj.at_ns, rng);
    else if (inj.kind == "slowloris")
      inject_slowloris(t, inj.a, inj.b, inj.n, inj.at_ns, rng);
    else if (inj.kind == "super_spreader")
      inject_super_spreader(t, inj.a, inj.n, inj.at_ns, rng);
    else if (inj.kind == "dns_no_tcp")
      inject_dns_no_tcp(t, inj.a, inj.b, inj.n, inj.at_ns, rng);
    else if (inj.kind == "volume_burst")
      // a = victim, b = dport, n = packets, m = burst duration in ms.
      inject_volume_burst(t, inj.a, static_cast<uint16_t>(inj.b), inj.n,
                          inj.at_ns,
                          std::max<uint64_t>(1, inj.m) * 1'000'000, rng);
    else if (inj.kind == "prefix_flood")
      // a = /24 prefix base, b = victim, n = sources, m = packets each.
      inject_prefix_flood(t, inj.a, inj.n, std::max<std::size_t>(1, inj.m),
                          inj.b, /*dport=*/8888, /*pkt_len=*/128, inj.at_ns,
                          rng);
    else
      throw std::invalid_argument("unknown injection kind: " + inj.kind);
  }
  t.sort_by_time();
  if (late_count > 0 && late_max_ms > 0 && !t.packets.empty()) {
    // Arrival key = timestamp, pushed up to late_max_ms later for the
    // drawn packets; a stable sort by it delays only those.
    std::mt19937_64 lrng(uint64_t{late_seed} * 0x9e3779b97f4a7c15ull + 5);
    const std::size_t n = t.packets.size();
    std::vector<uint64_t> arrival(n);
    for (std::size_t i = 0; i < n; ++i) arrival[i] = t.packets[i].ts_ns;
    for (std::size_t k = 0; k < late_count; ++k) {
      const std::size_t i = lrng() % n;
      arrival[i] = t.packets[i].ts_ns + 1 + lrng() % (late_max_ms * 1'000'000);
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return arrival[a] < arrival[b];
                     });
    std::vector<Packet> arrived;
    arrived.reserve(n);
    for (std::size_t i : order) arrived.push_back(t.packets[i]);
    t.packets = std::move(arrived);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string Scenario::serialize() const {
  std::ostringstream os;
  os << kHeader << "\n";
  os << "id " << id << "\n";
  os << "window_ms " << window_ms << "\n";
  os << "opt " << opt_level << "\n";
  os << "shards " << shards << "\n";
  os << "burst " << burst << "\n";
  os << "cqe_stages " << cqe_stages << "\n";
  os << "fault " << (fault ? 1 : 0) << " seed=" << fault_seed
     << " events=" << fault_events << "\n";
  // Emitted only when the axis is on, so pre-churn seed files round-trip
  // unchanged.
  if (churn_ops > 0)
    os << "churn ops=" << churn_ops << " seed=" << churn_seed << "\n";
  if (place_events > 0)
    os << "place events=" << place_events << " seed=" << place_seed << "\n";
  os << "trace " << trace.profile << " flows=" << trace.flows
     << " seed=" << trace.seed << "\n";
  // Emitted only when on, so seed files without late arrivals round-trip
  // unchanged.
  if (trace.late_count > 0)
    os << "late n=" << trace.late_count << " ms=" << trace.late_max_ms
       << " seed=" << trace.late_seed << "\n";
  for (const InjectionSpec& i : trace.injections)
    os << "inject " << i.kind << " a=" << i.a << " b=" << i.b << " n=" << i.n
       << " m=" << i.m << " at_ns=" << i.at_ns << "\n";
  for (const Query& q : queries) os << "query " << query_to_dsl(q) << "\n";
  for (const OpEvent& op : ops) {
    os << "op ";
    switch (op.kind) {
      case OpEvent::Kind::Install: os << "install"; break;
      case OpEvent::Kind::Withdraw: os << "withdraw"; break;
      case OpEvent::Kind::Update: os << "update"; break;
    }
    os << " q=" << op.query << " at=" << op.at_packet
       << " when=" << op.new_when << "\n";
  }
  return os.str();
}

namespace {

[[noreturn]] void bad_line(std::size_t no, const std::string& line,
                           const std::string& why) {
  throw std::runtime_error("scenario line " + std::to_string(no) + ": " + why +
                           ": " + line);
}

// Parse the `k=v` tokens following the leading words of a line.
uint64_t kv(const std::vector<std::string>& toks, const std::string& key,
            std::size_t line_no, const std::string& line) {
  for (const std::string& t : toks) {
    if (t.rfind(key + "=", 0) == 0)
      return std::stoull(t.substr(key.size() + 1));
  }
  bad_line(line_no, line, "missing " + key + "=");
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string t;
  while (is >> t) out.push_back(t);
  return out;
}

}  // namespace

Scenario Scenario::parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t no = 0;
  bool saw_header = false;
  Scenario s;
  while (std::getline(is, line)) {
    ++no;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != kHeader) bad_line(no, line, "expected header " + std::string(kHeader));
      saw_header = true;
      continue;
    }
    const auto toks = split_ws(line);
    const std::string& word = toks[0];
    if (word == "id") {
      s.id = std::stoull(toks.at(1));
    } else if (word == "window_ms") {
      s.window_ms = std::stoull(toks.at(1));
    } else if (word == "opt") {
      s.opt_level = std::stoi(toks.at(1));
    } else if (word == "shards") {
      s.shards = std::stoull(toks.at(1));
    } else if (word == "burst") {
      s.burst = std::stoull(toks.at(1));
    } else if (word == "cqe_stages") {
      s.cqe_stages = std::stoull(toks.at(1));
    } else if (word == "fault") {
      s.fault = std::stoi(toks.at(1)) != 0;
      s.fault_seed = static_cast<uint32_t>(kv(toks, "seed", no, line));
      s.fault_events = kv(toks, "events", no, line);
    } else if (word == "churn") {
      s.churn_ops = kv(toks, "ops", no, line);
      s.churn_seed = static_cast<uint32_t>(kv(toks, "seed", no, line));
    } else if (word == "place") {
      s.place_events = kv(toks, "events", no, line);
      s.place_seed = static_cast<uint32_t>(kv(toks, "seed", no, line));
    } else if (word == "trace") {
      s.trace.profile = toks.at(1);
      s.trace.flows = kv(toks, "flows", no, line);
      s.trace.seed = static_cast<uint32_t>(kv(toks, "seed", no, line));
    } else if (word == "late") {
      s.trace.late_count = kv(toks, "n", no, line);
      s.trace.late_max_ms = kv(toks, "ms", no, line);
      if (s.trace.late_max_ms > 1'000'000)
        bad_line(no, line, "late ms= above 1000 s");
      s.trace.late_seed = static_cast<uint32_t>(kv(toks, "seed", no, line));
    } else if (word == "inject") {
      InjectionSpec i;
      i.kind = toks.at(1);
      i.a = static_cast<uint32_t>(kv(toks, "a", no, line));
      i.b = static_cast<uint32_t>(kv(toks, "b", no, line));
      i.n = kv(toks, "n", no, line);
      i.m = kv(toks, "m", no, line);
      i.at_ns = kv(toks, "at_ns", no, line);
      s.trace.injections.push_back(i);
    } else if (word == "query") {
      const std::string dsl = line.substr(line.find("query") + 6);
      s.queries.push_back(parse_query(query_name(s.queries.size()), dsl));
    } else if (word == "op") {
      OpEvent op;
      const std::string& k = toks.at(1);
      if (k == "install")
        op.kind = OpEvent::Kind::Install;
      else if (k == "withdraw")
        op.kind = OpEvent::Kind::Withdraw;
      else if (k == "update")
        op.kind = OpEvent::Kind::Update;
      else
        bad_line(no, line, "unknown op kind");
      op.query = kv(toks, "q", no, line);
      op.at_packet = kv(toks, "at", no, line);
      op.new_when = static_cast<uint32_t>(kv(toks, "when", no, line));
      s.ops.push_back(op);
    } else {
      bad_line(no, line, "unknown directive");
    }
  }
  if (!saw_header) throw std::runtime_error("scenario: empty input");
  if (s.queries.empty()) throw std::runtime_error("scenario: no queries");
  // The scenario's window is authoritative over the per-query DSL window.
  for (Query& q : s.queries) q.window_ns = s.window_ns();
  for (const OpEvent& op : s.ops)
    if (op.query >= s.queries.size())
      throw std::runtime_error("scenario: op references missing query " +
                               std::to_string(op.query));
  return s;
}

Scenario Scenario::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse(buf.str());
}

void Scenario::save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write scenario file: " + path);
  f << serialize();
}

// ---------------------------------------------------------------------------
// Op resolution
// ---------------------------------------------------------------------------

std::vector<ResolvedOp> resolve_ops(const Scenario& s) {
  std::vector<OpEvent> ordered = s.ops;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const OpEvent& a, const OpEvent& b) {
                     return a.at_packet < b.at_packet;
                   });
  std::vector<Query> defs = s.queries;  // definitions mutate under Update
  std::vector<char> installed(s.queries.size(), 0);
  std::vector<ResolvedOp> out;
  for (const OpEvent& op : ordered) {
    switch (op.kind) {
      case OpEvent::Kind::Install:
        if (installed[op.query]) break;  // no-op: already installed
        installed[op.query] = 1;
        out.push_back({ResolvedOp::Kind::Install, op.query, op.at_packet,
                       defs[op.query]});
        break;
      case OpEvent::Kind::Withdraw:
        if (!installed[op.query]) break;
        installed[op.query] = 0;
        out.push_back(
            {ResolvedOp::Kind::Withdraw, op.query, op.at_packet, {}});
        break;
      case OpEvent::Kind::Update: {
        if (!installed[op.query]) break;
        Query& d = defs[op.query];
        bool changed = false;
        for (BranchDef& b : d.branches)
          for (auto it = b.primitives.rbegin(); it != b.primitives.rend(); ++it)
            if (it->kind == PrimitiveKind::When) {
              it->when_value = op.new_when;
              changed = true;
              break;
            }
        if (!changed) break;  // nothing to update: drop
        out.push_back(
            {ResolvedOp::Kind::Withdraw, op.query, op.at_packet, {}});
        out.push_back(
            {ResolvedOp::Kind::Install, op.query, op.at_packet, d});
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Generation / mutation
// ---------------------------------------------------------------------------

namespace {

uint64_t rnd(std::mt19937_64& rng, uint64_t lo, uint64_t hi) {
  return lo + rng() % (hi - lo + 1);
}

template <typename T>
T pick(std::mt19937_64& rng, std::initializer_list<T> xs) {
  return *(xs.begin() + rng() % xs.size());
}

Predicate gen_filter(std::mt19937_64& rng) {
  // Keep predicates init-expressible (equality over 5-tuple + flags): they
  // compile identically at every optimization level.
  switch (rng() % 6) {
    case 0:
      return Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp);
    case 1:
      return Predicate{}.where(Field::Proto, Cmp::Eq, kProtoUdp);
    case 2:
      return Predicate{}
          .where(Field::Proto, Cmp::Eq, kProtoTcp)
          .where(Field::TcpFlags, Cmp::Eq, kTcpSyn);
    case 3:
      return Predicate{}
          .where(Field::Proto, Cmp::Eq, kProtoTcp)
          .where(Field::TcpFlags, Cmp::Eq, kTcpSynAck);
    case 4:
      return Predicate{}.where(Field::DstPort, Cmp::Eq, 53);
    default:
      return Predicate{}.where(Field::DstPort, Cmp::Eq, 80);
  }
}

std::vector<KeySel> gen_stateful_keys(std::mt19937_64& rng) {
  const uint64_t r = rng() % 10;
  if (r < 6) return {Field::DstIp};
  if (r < 8) return {Field::SrcIp};
  if (r < 9) return {{Field::DstIp}, {Field::DstPort}};
  // Prefix-masked key: the runtime's key groups shard it on the coarsest
  // mask of the branches that share its field.
  return {{Field::SrcIp, 0xffffff00u}};
}

Query gen_query(std::mt19937_64& rng, std::size_t idx, bool wide) {
  QueryBuilder b(query_name(idx));
  if (wide)
    b.sketch(kWideDepth, kWideWidth);
  else if (rng() % 5 == 0)  // stress regime: small sketches, shards==1 only
    b.sketch(rnd(rng, 2, 3), pick<std::size_t>(rng, {2048, 8192}));
  else
    b.sketch(rnd(rng, 2, 3), kCalibratedWidth);

  if (rng() % 10 < 7) b.filter(gen_filter(rng));
  const std::vector<KeySel> keys = gen_stateful_keys(rng);
  const uint32_t count_th =
      static_cast<uint32_t>(wide ? rnd(rng, 4, 16) : rnd(rng, 8, 48));
  const Cmp when_op = rng() % 7 == 0 ? Cmp::Gt : Cmp::Ge;

  switch (rng() % 10) {
    case 0:  // stateless: map-terminal
      b.map(keys);
      break;
    case 1:  // distinct-terminal
      b.distinct(keys);
      break;
    case 2: {  // distinct-terminal over a pair key
      std::vector<KeySel> pair{Field::SrcIp, Field::DstIp};
      b.map(pair).distinct(pair);
      break;
    }
    case 3:
    case 4: {  // super-spreader shape: distinct pair, then count per key
      std::vector<KeySel> pair{Field::SrcIp, Field::DstIp};
      b.distinct(pair).reduce({Field::DstIp}, Agg::Sum).when(
          when_op, wide ? static_cast<uint32_t>(rnd(rng, 3, 10)) : count_th);
      break;
    }
    case 5: {  // byte counter
      const uint32_t byte_th =
          static_cast<uint32_t>(wide ? rnd(rng, 500, 4000) : rnd(rng, 2000, 40000));
      b.map(keys).reduce(keys, Agg::Sum, /*sum_pkt_len=*/true)
          .when(when_op, byte_th);
      break;
    }
    default:  // packet counter
      b.map(keys).reduce(keys, Agg::Sum).when(when_op, count_th);
      break;
  }
  return b.build();
}

InjectionSpec gen_injection(std::mt19937_64& rng, bool wide) {
  InjectionSpec i;
  // Victims in 172.16/16, attackers/resolvers in 198.18/16 — disjoint from
  // the background generator's pools, so injected keys are unambiguous.
  i.a = 0xAC100000u + static_cast<uint32_t>(rnd(rng, 1, 4000));
  i.b = 0xC6120000u + static_cast<uint32_t>(rnd(rng, 1, 4000));
  i.at_ns = rnd(rng, 0, 800) * 1'000'000ull;
  const std::size_t cap = wide ? 24 : 90;
  i.n = rnd(rng, 12, cap);
  i.m = rnd(rng, 1, 2);
  i.kind = pick<std::string>(
      rng, {"syn_flood", "udp_flood", "port_scan", "ssh_brute", "slowloris",
            "super_spreader", "dns_no_tcp", "volume_burst", "prefix_flood"});
  if (i.kind == "volume_burst") {
    i.b = rnd(rng, 1024, 65535);       // dport, not an address
    i.n = rnd(rng, 40, wide ? 80 : 240);  // packets in the burst
    i.m = rnd(rng, 10, 60);            // duration ms
  } else if (i.kind == "prefix_flood") {
    i.a = (0xC6120000u + static_cast<uint32_t>(rnd(rng, 1, 60) << 8));  // /24
    i.b = 0xAC100000u + static_cast<uint32_t>(rnd(rng, 1, 4000));  // victim
    i.n = rnd(rng, 4, 16);   // sources in the prefix
    i.m = rnd(rng, 4, 12);   // packets per source
  }
  return i;
}

void draw_late_arrivals(TraceSpec& t, std::mt19937_64& rng) {
  t.late_count = rnd(rng, 1, 16);
  t.late_max_ms = rnd(rng, 1, 40);
  t.late_seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
}

void gen_ops(Scenario& s, std::mt19937_64& rng) {
  s.ops.clear();
  for (std::size_t qi = 0; qi < s.queries.size(); ++qi)
    s.ops.push_back({OpEvent::Kind::Install, qi, 0, 0});
  if (rng() % 10 >= 4) return;
  const std::size_t P = s.trace.build().size();
  if (P < 60) return;
  const std::size_t extra = rnd(rng, 1, 2);
  for (std::size_t e = 0; e < extra; ++e) {
    // The fault axis replays query 0 against the fat-tree with its own
    // deployment lifecycle; keep its schedule to the initial install.
    const std::size_t lo = s.fault && s.queries.size() > 1 ? 1 : 0;
    if (s.fault && s.queries.size() == 1) break;
    const std::size_t qi = rnd(rng, lo, s.queries.size() - 1);
    const uint64_t p1 = rnd(rng, P / 5, P / 2);
    switch (rng() % 3) {
      case 0: {
        s.ops.push_back({OpEvent::Kind::Withdraw, qi, p1, 0});
        if (rng() % 10 < 6)
          s.ops.push_back(
              {OpEvent::Kind::Install, qi, rnd(rng, p1 + 1, (P * 9) / 10), 0});
        break;
      }
      case 1:
        s.ops.push_back({OpEvent::Kind::Update, qi, rnd(rng, P / 5, (P * 4) / 5),
                         static_cast<uint32_t>(rnd(rng, 3, 60))});
        break;
      default:
        s.ops.push_back({OpEvent::Kind::Withdraw, qi, p1, 0});
        break;
    }
  }
}

// Enforce the cross-cutting invariants after generation or mutation: query
// naming, window agreement, wide-regime sizing, fault-axis restrictions
// and op validity.
Query fallback_query() {
  return QueryBuilder("q0")
      .sketch(2, kCalibratedWidth)
      .map({Field::DstIp})
      .build();
}

void normalize(Scenario& s) {
  if (s.queries.empty()) s.queries.push_back(fallback_query());
  s.window_ms = std::clamp<uint64_t>(s.window_ms, 10, 500);
  s.burst = std::clamp<std::size_t>(s.burst, 1, 1024);
  s.opt_level = std::clamp(s.opt_level, 1, 3);
  if (s.churn_ops > 0)
    s.churn_ops = std::clamp<std::size_t>(s.churn_ops, 1, 64);
  if (s.place_events > 0)
    s.place_events = std::clamp<std::size_t>(s.place_events, 1, 16);
  if (s.trace.late_count > 0) {
    s.trace.late_count = std::min<std::size_t>(s.trace.late_count, 64);
    s.trace.late_max_ms = std::clamp<uint64_t>(s.trace.late_max_ms, 1, 100);
  }

  // Fault axis preconditions: query 0 reduce-free (report equivalence under
  // reroute is only an invariant for stateless/distinct exporters) and no
  // mid-stream ops against query 0.
  if (s.fault) {
    if (has_kind(s.queries[0], PrimitiveKind::Reduce)) s.fault = false;
    for (const OpEvent& op : s.ops)
      if (op.query == 0 && !(op.kind == OpEvent::Kind::Install &&
                             op.at_packet == 0)) {
        s.fault = false;
        break;
      }
    s.fault_events = std::clamp<std::size_t>(s.fault_events, 1, 8);
  }

  const bool wide = s.shards > 1 || s.fault;
  if (wide) {
    if (s.queries.size() > kWideMaxQueries) {
      s.queries.resize(kWideMaxQueries);
      std::erase_if(s.ops, [&](const OpEvent& op) {
        return op.query >= s.queries.size();
      });
    }
    s.trace.flows = std::min(s.trace.flows, kWideMaxFlows);
    for (InjectionSpec& i : s.trace.injections) {
      i.n = std::min<std::size_t>(i.n, 24);
      i.m = std::min<std::size_t>(std::max<std::size_t>(i.m, 1), 2);
    }
    for (Query& q : s.queries)
      if (is_stateful(q)) {
        q.sketch_depth = kWideDepth;
        q.sketch_width = kWideWidth;
      }
  }
  s.trace.flows = std::clamp<std::size_t>(s.trace.flows, 16, 400);

  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    Query& q = s.queries[i];
    q.name = query_name(i);
    q.window_ns = s.window_ns();
    q.row_partitions = 1;
    q.sketch_depth = std::clamp<std::size_t>(q.sketch_depth, 2, 4);
    q.sketch_width = std::clamp<std::size_t>(q.sketch_width, 2048, kWideWidth);
  }

  std::erase_if(s.ops,
                [&](const OpEvent& op) { return op.query >= s.queries.size(); });
  bool any_install = false;
  for (const OpEvent& op : s.ops)
    any_install |= op.kind == OpEvent::Kind::Install;
  if (!any_install)
    for (std::size_t qi = 0; qi < s.queries.size(); ++qi)
      s.ops.push_back({OpEvent::Kind::Install, qi, 0, 0});

  // Stage-budget feasibility: every install event (including reinstalls and
  // updates) may chain after the previous high-water stage, so the sum of
  // O0 schedule spans must fit the harness pipelines with headroom.
  const std::size_t stage_budget = kPipelineStages - 8;
  const auto span_of = [](const Query& q) {
    CompileOptions o0;  // no optimizations = the widest schedule
    o0.opt1 = o0.opt2 = o0.opt3 = false;
    return compile_query(q, o0).max_stage() + 1;
  };
  std::vector<std::size_t> span;
  for (const Query& q : s.queries) span.push_back(span_of(q));
  const auto stages_needed = [&] {
    std::size_t t = 0;
    for (const OpEvent& op : s.ops)
      if (op.kind != OpEvent::Kind::Withdraw) t += span[op.query];
    return t;
  };
  while (stages_needed() > stage_budget) {
    // Shed the latest non-initial op first, then whole trailing queries.
    bool shed = false;
    for (std::size_t oi = s.ops.size(); oi-- > 0;) {
      const OpEvent& op = s.ops[oi];
      if (op.kind == OpEvent::Kind::Install && op.at_packet == 0) continue;
      s.ops.erase(s.ops.begin() + static_cast<std::ptrdiff_t>(oi));
      shed = true;
      break;
    }
    if (shed) continue;
    if (s.queries.size() > 1) {
      s.queries.pop_back();
      span.pop_back();
      std::erase_if(s.ops, [&](const OpEvent& op) {
        return op.query >= s.queries.size();
      });
      continue;
    }
    s.queries[0] = fallback_query();
    s.queries[0].window_ns = s.window_ns();
    span[0] = span_of(s.queries[0]);
    s.ops = {{OpEvent::Kind::Install, 0, 0, 0}};
    break;
  }
}

}  // namespace

Scenario generate_scenario(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Scenario s;
  s.id = seed;
  s.window_ms = pick<uint64_t>(rng, {50, 100, 200});
  s.opt_level = static_cast<int>(rnd(rng, 1, 3));
  s.burst = pick<std::size_t>(rng, {1, 16, 64, 256});
  const bool want_shards = rng() % 5 < 2;
  s.fault = !want_shards && rng() % 8 == 0;
  const bool wide = want_shards || s.fault;

  s.trace.profile = rng() % 3 ? "caida" : "mawi";
  s.trace.seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
  s.trace.flows = wide ? rnd(rng, 24, kWideMaxFlows) : rnd(rng, 80, 300);
  const std::size_t n_inj = rnd(rng, 1, 3);
  for (std::size_t i = 0; i < n_inj; ++i)
    s.trace.injections.push_back(gen_injection(rng, wide));

  const std::size_t nq = wide ? rnd(rng, 1, 2) : rnd(rng, 1, 3);
  for (std::size_t i = 0; i < nq; ++i)
    s.queries.push_back(gen_query(rng, i, wide));
  if (s.fault && has_kind(s.queries[0], PrimitiveKind::Reduce)) {
    // Regenerate query 0 as a distinct exporter so the fault axis can run.
    QueryBuilder b("q0");
    b.sketch(kWideDepth, kWideWidth);
    if (rng() % 2) b.filter(Predicate{}.where(Field::Proto, Cmp::Eq, kProtoTcp));
    std::vector<KeySel> pair{Field::SrcIp, Field::DstIp};
    b.map(pair).distinct(pair);
    s.queries[0] = b.build();
  }

  if (want_shards) s.shards = pick<std::size_t>(rng, {2, 4});
  if (!wide && rng() % 10 < 3) s.cqe_stages = pick<std::size_t>(rng, {3, 4, 6});
  if (s.fault) {
    s.fault_seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
    s.fault_events = rnd(rng, 2, 6);
  }

  gen_ops(s, rng);
  // Churn axis on ~1/3 of scenarios (drawn last so earlier fields keep the
  // same rng stream as before the axis existed).
  if (rng() % 3 == 0) {
    s.churn_ops = rnd(rng, 6, 16);
    s.churn_seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
  }
  // Placement axis on ~1/4 of scenarios (also drawn after the pre-existing
  // fields, preserving their rng stream).
  if (rng() % 4 == 0) {
    s.place_events = rnd(rng, 4, 12);
    s.place_seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
  }
  // Late arrivals on ~1/4 of scenarios (drawn last, like the axes above).
  if (rng() % 4 == 0) draw_late_arrivals(s.trace, rng);
  normalize(s);
  return s;
}

Scenario mutate_scenario(const Scenario& base, std::mt19937_64& rng) {
  Scenario s = base;
  s.id = rng();
  const std::size_t n_mut = rnd(rng, 1, 2);
  for (std::size_t m = 0; m < n_mut; ++m) {
    switch (rng() % 15) {
      case 0: s.window_ms = pick<uint64_t>(rng, {50, 100, 200}); break;
      case 1: s.opt_level = static_cast<int>(rnd(rng, 1, 3)); break;
      case 2:
        s.shards = pick<std::size_t>(rng, {1, 2, 4});
        if (s.shards > 1) s.fault = false;
        break;
      case 3: s.burst = pick<std::size_t>(rng, {1, 16, 64, 256}); break;
      case 4: {  // replace one query
        const std::size_t qi = rnd(rng, 0, s.queries.size() - 1);
        s.queries[qi] =
            gen_query(rng, qi, s.shards > 1 || s.fault);
        break;
      }
      case 5: {  // add a query (and its install)
        if (s.queries.size() < 3 && !(s.shards > 1 || s.fault)) {
          s.queries.push_back(
              gen_query(rng, s.queries.size(), false));
          s.ops.push_back(
              {OpEvent::Kind::Install, s.queries.size() - 1, 0, 0});
        }
        break;
      }
      case 6:  // reshape the trace
        s.trace.seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
        s.trace.flows = rnd(rng, 24, 300);
        break;
      case 7:  // add / drop an injection
        if (!s.trace.injections.empty() && rng() % 2)
          s.trace.injections.erase(s.trace.injections.begin() +
                                   static_cast<std::ptrdiff_t>(
                                       rng() % s.trace.injections.size()));
        else
          s.trace.injections.push_back(
              gen_injection(rng, s.shards > 1 || s.fault));
        break;
      case 8:  // regenerate the op schedule
        gen_ops(s, rng);
        break;
      case 9:
        s.cqe_stages = s.cqe_stages || s.shards > 1 || s.fault
                           ? 0
                           : pick<std::size_t>(rng, {3, 4, 6});
        break;
      case 10:  // toggle the fault axis
        if (s.fault) {
          s.fault = false;
        } else if (s.shards == 1) {
          s.fault = true;
          s.fault_seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
          s.fault_events = rnd(rng, 2, 6);
        }
        break;
      case 11:  // toggle the churn axis
        if (s.churn_ops > 0) {
          s.churn_ops = 0;
        } else {
          s.churn_ops = rnd(rng, 6, 16);
          s.churn_seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
        }
        break;
      case 12:  // toggle the placement axis
        if (s.place_events > 0) {
          s.place_events = 0;
        } else {
          s.place_events = rnd(rng, 4, 12);
          s.place_seed = static_cast<uint32_t>(rnd(rng, 1, 1'000'000));
        }
        break;
      case 13:  // toggle late arrivals
        if (s.trace.late_count > 0)
          s.trace.late_count = 0;
        else
          draw_late_arrivals(s.trace, rng);
        break;
      default: {  // nudge a when-threshold
        for (Query& q : s.queries)
          for (BranchDef& b : q.branches)
            for (Primitive& p : b.primitives)
              if (p.kind == PrimitiveKind::When && rng() % 2)
                p.when_value = static_cast<uint32_t>(rnd(rng, 3, 60));
        break;
      }
    }
  }
  normalize(s);
  return s;
}

}  // namespace newton::difftest
