// Telemetry registry: wait-free update semantics (multi-thread merge on
// scrape), exporter formats, reset, and the scrape-determinism contract
// under the sharded runtime — the same workload run with 1 worker and N
// workers must export identical workload-derived series.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/telemetry.h"
#include "trace/attacks.h"
#include "trace/trace_gen.h"

namespace newton {
namespace {

using telemetry::Labels;
using telemetry::Registry;
using telemetry::Sample;
using telemetry::Snapshot;

TEST(Telemetry, CounterMergesThreadShards) {
  Registry reg;
  telemetry::Counter& c = reg.counter("requests_total", "help text");
  constexpr int kThreads = 8, kPerThread = 10'000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i)
    ts.emplace_back([&c] {
      for (int j = 0; j < kPerThread; ++j) c.add();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);

  // Same (name, labels) returns the same instrument; a kind clash throws.
  EXPECT_EQ(&reg.counter("requests_total"), &c);
  EXPECT_THROW(reg.gauge("requests_total"), std::logic_error);
}

TEST(Telemetry, GaugeSetAndAdd) {
  Registry reg;
  telemetry::Gauge& g = reg.gauge("depth", "", {{"shard", "0"}});
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  reg.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Telemetry, HistogramBucketsAndSum) {
  Registry reg;
  telemetry::Histogram& h =
      reg.histogram("latency_ms", "", {1.0, 10.0, 100.0});
  for (double v : {0.5, 1.0, 5.0, 50.0, 500.0}) h.observe(v);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(counts[0], 2u);      // 0.5, 1.0 (inclusive upper bound)
  EXPECT_EQ(counts[1], 1u);      // 5.0
  EXPECT_EQ(counts[2], 1u);      // 50.0
  EXPECT_EQ(counts[3], 1u);      // 500.0 -> +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);

  // Concurrent observers land in per-thread shards, merged on scrape.
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.emplace_back([&h] {
      for (int j = 0; j < 1000; ++j) h.observe(2.0);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), 4005u);
}

TEST(Telemetry, PrometheusExposition) {
  Registry reg;
  reg.counter("b_total", "b help", {{"module", "K"}}).add(3);
  reg.counter("b_total", "b help", {{"module", "R"}}).add(1);
  reg.gauge("a_gauge", "a help").set(-2);
  reg.histogram("h_ms", "h help", {1.0, 10.0}).observe(4.0);
  const std::string text = telemetry::to_prometheus(reg.snapshot());

  EXPECT_NE(text.find("# HELP a_gauge a help\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE a_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("a_gauge -2\n"), std::string::npos);
  EXPECT_NE(text.find("b_total{module=\"K\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("b_total{module=\"R\"} 1\n"), std::string::npos);
  // HELP/TYPE emitted once per family, before the first child.
  EXPECT_EQ(text.find("# TYPE b_total counter"),
            text.rfind("# TYPE b_total counter"));
  // Histogram: cumulative buckets + canonical triplet.
  EXPECT_NE(text.find("h_ms_bucket{le=\"1\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_count 1\n"), std::string::npos);
  // Families are ordered: a_gauge before b_total before h_ms.
  EXPECT_LT(text.find("a_gauge"), text.find("b_total"));
  EXPECT_LT(text.find("b_total"), text.find("h_ms"));
}

TEST(Telemetry, JsonExport) {
  Registry reg;
  reg.counter("pkts_total", "", {{"stage", "2"}}).add(9);
  reg.histogram("m_us", "", {5.0}).observe(7.0);
  const std::string js = telemetry::to_json(reg.snapshot());
  EXPECT_NE(js.find("{\"name\": \"m_us\", \"type\": \"histogram\", "
                    "\"bounds\": [5], \"buckets\": [0, 1], \"sum\": 7, "
                    "\"count\": 1}"),
            std::string::npos);
  EXPECT_NE(js.find("{\"name\": \"pkts_total\", \"labels\": {\"stage\": "
                    "\"2\"}, \"type\": \"counter\", \"value\": 9}"),
            std::string::npos);
  // Balanced brackets / braces (cheap well-formedness check).
  int depth = 0;
  for (char c : js) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Telemetry, SnapshotIsStableAcrossIdenticalScrapes) {
  Registry reg;
  reg.counter("x_total").add(5);
  reg.gauge("y").set(3);
  const std::string a = telemetry::to_prometheus(reg.snapshot());
  const std::string b = telemetry::to_prometheus(reg.snapshot());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Scrape determinism under the sharded runtime (tentpole acceptance): the
// workload-derived series must not depend on the shard count.
// ---------------------------------------------------------------------------

Trace attack_trace() {
  TraceProfile p = caida_like(23);
  p.num_flows = 600;
  Trace t = generate_trace(p);
  std::mt19937 rng(77);
  inject_syn_flood(t, ipv4(172, 16, 7, 7), 120, 1, 150'000'000, rng);
  inject_udp_flood(t, ipv4(172, 16, 9, 9), 90, 2, 450'000'000, rng);
  t.sort_by_time();
  return t;
}

// Run `queries` (default q1) over the trace with `shards` workers and the
// given shard key (default dip-affine; unset derives the key groups) — the
// configurations test_runtime.cpp proves produce a byte-identical report
// stream at any shard count; return (global-registry snapshot of the
// pipeline/module series, private-registry runtime snapshot).
std::pair<Snapshot, Snapshot> run_with_shards(
    const Trace& t, std::size_t shards,
    std::optional<ShardKey> key = ShardKey::on({Field::DstIp}),
    const std::vector<Query>& queries = {make_q1(QueryParams{})}) {
  Registry::global().reset();
  Registry runtime_reg;
  Analyzer an;
  NewtonSwitch sw(1, 24, nullptr);
  RuntimeOptions o;
  o.num_shards = shards;
  o.shard_key = std::move(key);
  o.registry = &runtime_reg;
  ShardedRuntime rt(sw, o, &an);
  for (const Query& q : queries) rt.install(q);
  rt.run(t);
  rt.finish();
  return {Registry::global().snapshot(), runtime_reg.snapshot()};
}

double series(const Snapshot& s, const std::string& name,
              const Labels& labels = {}) {
  const Sample* m = s.find(name, labels);
  EXPECT_NE(m, nullptr) << name;
  return m ? m->value : -1.0;
}

// Pipeline and module series are workload-derived: identical totals at any
// shard count.
const std::vector<std::pair<std::string, Labels>> kDeterministic = {
      {"newton_pipeline_packets_total", {}},
      {"newton_pipeline_stage_packets_total", {{"stage", "0"}}},
      {"newton_pipeline_stage_packets_total", {{"stage", "23"}}},
      {"newton_module_rule_hits_total", {{"module", "K"}}},
      {"newton_module_rule_hits_total", {{"module", "H"}}},
      {"newton_module_rule_hits_total", {{"module", "S"}}},
      {"newton_module_rule_hits_total", {{"module", "R"}}},
      {"newton_module_rule_hits_total", {{"module", "init"}}},
};

TEST(Telemetry, ScrapeDeterministicOneVsManyShards) {
  const Trace t = attack_trace();
  const auto [g1, r1] = run_with_shards(t, 1);
  const auto [g4, r4] = run_with_shards(t, 4);

  for (const auto& [name, labels] : kDeterministic)
    EXPECT_EQ(series(g1, name, labels), series(g4, name, labels))
        << name << " diverged between 1 and 4 shards";
  EXPECT_GT(series(g1, "newton_pipeline_packets_total"), 0.0);
  EXPECT_GT(series(g1, "newton_module_rule_hits_total", {{"module", "S"}}),
            0.0);

  // Runtime series: demux-side totals match; per-shard packet counters sum
  // to the same demuxed total on both sides.
  for (const char* name :
       {"newton_runtime_packets_in_total", "newton_runtime_windows_total",
        "newton_runtime_reports_total"})
    EXPECT_EQ(series(r1, name), series(r4, name)) << name;

  double shard_sum_1 = 0, shard_sum_4 = 0;
  for (const Sample& m : r1.samples)
    if (m.name == "newton_runtime_shard_packets_total") shard_sum_1 += m.value;
  for (const Sample& m : r4.samples)
    if (m.name == "newton_runtime_shard_packets_total") shard_sum_4 += m.value;
  EXPECT_EQ(shard_sum_1, shard_sum_4);
  EXPECT_EQ(shard_sum_1, series(r1, "newton_runtime_packets_in_total"));

  // The merge histogram observed every completed window.
  const Sample* h = r4.find("newton_runtime_window_merge_duration_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(static_cast<double>(h->count),
            series(r4, "newton_runtime_windows_total"));
}

TEST(Telemetry, ScrapeDeterministicOneVsManyShardsWithKeyGroups) {
  // q1 and q6's syn/ack branches (dip) and q6's synack branch (sip): two
  // key groups, so a packet visits up to two shards; only the visit
  // carrying group 0 counts it, and each branch runs on one visit only.
  // Reduce-only chains: behind a distinct, how far a packet runs depends on
  // its shard's bloom false positives (docs/runtime.md).
  const Trace t = attack_trace();
  const QueryParams p;
  const std::vector<Query> queries = {make_q1(p), make_q6(p)};
  const auto [g1, r1] = run_with_shards(t, 1, std::nullopt, queries);
  const auto [g4, r4] = run_with_shards(t, 4, std::nullopt, queries);

  for (const auto& [name, labels] : kDeterministic)
    EXPECT_EQ(series(g1, name, labels), series(g4, name, labels))
        << name << " diverged between 1 and 4 shards";
  EXPECT_EQ(series(g1, "newton_pipeline_packets_total"),
            static_cast<double>(t.size()));

  EXPECT_EQ(series(r1, "newton_runtime_shard_groups"), 2.0);
  EXPECT_EQ(series(r4, "newton_runtime_shard_groups"), 2.0);
  const double in = series(r4, "newton_runtime_packets_in_total");
  EXPECT_EQ(series(r1, "newton_runtime_shard_visits_total"), in);
  const double visits = series(r4, "newton_runtime_shard_visits_total");
  EXPECT_GT(visits, in);
  EXPECT_LE(visits, 2 * in);
  double shard_sum = 0;
  for (const Sample& m : r4.samples)
    if (m.name == "newton_runtime_shard_packets_total") shard_sum += m.value;
  EXPECT_EQ(shard_sum, visits);
}

}  // namespace
}  // namespace newton
