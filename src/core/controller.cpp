#include "core/controller.h"

#include <algorithm>
#include <ranges>
#include <stdexcept>
#include <tuple>

#include "core/overlap.h"
#include "telemetry/telemetry.h"

namespace newton {

namespace {

// Latency distribution of one controller->switch mutation, fed by the
// modeled values the rule_latency model attaches to every batch (Fig. 11's
// 5-20 ms envelope sits in the middle buckets).
telemetry::Histogram& op_latency(const char* op) {
  return telemetry::Registry::global().histogram(
      "newton_controller_op_latency_ms",
      "Modeled control-channel latency of one query mutation batch",
      {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500}, {{"op", op}});
}

telemetry::Counter& op_rule_ops(const char* op) {
  return telemetry::Registry::global().counter(
      "newton_controller_rule_ops_total",
      "Table-entry writes/deletes issued by query mutations", {{"op", op}});
}

telemetry::Counter& rejected_mutations() {
  return telemetry::Registry::global().counter(
      "newton_controller_mutations_rejected_total",
      "Mutations rejected by the quiesce guard (window open mid-stream)");
}

telemetry::Counter& admission_counter(bool admitted, AdmitCode code) {
  return telemetry::Registry::global().counter(
      "newton_admission_total",
      "Admission-control decisions by outcome and reason code",
      {{"outcome", admitted ? "admit" : "reject"}, {"code", to_string(code)}});
}

telemetry::Counter& tenant_counter(const char* what,
                                   const std::string& tenant) {
  return telemetry::Registry::global().counter(
      std::string("newton_tenant_") + what + "_total",
      "Per-tenant query lifecycle events", {{"tenant", tenant}});
}

telemetry::Gauge& tenant_gauge(const char* what, const std::string& tenant) {
  return telemetry::Registry::global().gauge(
      std::string("newton_tenant_") + what, "Per-tenant occupancy",
      {{"tenant", tenant}});
}

telemetry::Counter& compaction_moves() {
  return telemetry::Registry::global().counter(
      "newton_compaction_moves_total",
      "Queries migrated by online layout compaction");
}

}  // namespace

void Controller::check_mutation_guard() const {
  if (!mutation_guard_) return;
  try {
    mutation_guard_();
  } catch (...) {
    rejected_mutations().add();
    throw;
  }
}

CompiledQuery Controller::compile_chained(const Query& q, CompileOptions opts,
                                         const std::string* skip) const {
  // A view, not a vector: chaining adds no allocation to the install path.
  auto placed =
      queries_ | std::views::filter([skip](const auto& kv) {
        return !skip || kv.first != *skip;
      }) |
      std::views::transform([](const auto& kv) { return &kv.second.cq; });
  opts.min_stage = std::max(opts.min_stage, chain_floor(q, opts, placed));
  return compile_query(q, opts);
}

AdmitDecision Controller::admit_compiled(const QueryDemand& d,
                                         const std::string& tenant) const {
  const auto qit = quotas_.find(tenant);
  if (qit != quotas_.end()) {
    TenantUsage usage;
    const auto uit = usage_.find(tenant);
    if (uit != usage_.end()) usage = uit->second;
    AdmitDecision dec = admit_against_quota(qit->second, usage, d);
    if (!dec.admitted()) return dec;
  }
  return admit_against_switch(sw_, d);
}

void Controller::record_admission(const AdmitDecision& d,
                                  const std::string& tenant) {
  admission_counter(d.admitted(), d.code).add();
  if (!d.admitted()) tenant_counter("rejects", tenant).add();
}

void Controller::account_install(const std::string& tenant,
                                 const QueryDemand& d) {
  TenantUsage& u = usage_[tenant];
  ++u.queries;
  u.registers += d.total_registers;
  u.rules += d.total_rules;
  tenant_counter("installs", tenant).add();
  tenant_gauge("queries", tenant).set(static_cast<int64_t>(u.queries));
  tenant_gauge("registers", tenant).set(static_cast<int64_t>(u.registers));
}

void Controller::account_remove(const std::string& tenant,
                                const QueryDemand& d) {
  TenantUsage& u = usage_[tenant];
  u.queries -= std::min(u.queries, static_cast<std::size_t>(1));
  u.registers -= std::min(u.registers, d.total_registers);
  u.rules -= std::min(u.rules, d.total_rules);
  tenant_counter("withdrawals", tenant).add();
  tenant_gauge("queries", tenant).set(static_cast<int64_t>(u.queries));
  tenant_gauge("registers", tenant).set(static_cast<int64_t>(u.registers));
}

Controller::FragStats Controller::fragmentation() const {
  FragStats f;
  for (std::size_t st = 0; st < sw_.num_stages(); ++st) {
    const RangeAllocator& a = sw_.bank_allocator(st);
    const std::size_t free = a.free_total();
    const std::size_t largest = a.largest_free_block();
    f.free_registers += free;
    f.largest_free_block = std::max(f.largest_free_block, largest);
    f.stranded_registers += free - largest;
  }
  return f;
}

void Controller::publish_fragmentation() const {
  static telemetry::Gauge& g_free = telemetry::Registry::global().gauge(
      "newton_frag_free_registers",
      "Free state-bank registers summed over stages");
  static telemetry::Gauge& g_largest = telemetry::Registry::global().gauge(
      "newton_frag_largest_free_block",
      "Largest contiguous free register hole across stages");
  static telemetry::Gauge& g_stranded = telemetry::Registry::global().gauge(
      "newton_frag_stranded_registers",
      "Free registers stranded behind fragmentation (free - largest hole, "
      "summed over stages)");
  const FragStats f = fragmentation();
  g_free.set(static_cast<int64_t>(f.free_registers));
  g_largest.set(static_cast<int64_t>(f.largest_free_block));
  g_stranded.set(static_cast<int64_t>(f.stranded_registers));
}

AdmitDecision Controller::admit(const Query& q, CompileOptions opts,
                                const std::string& tenant) const {
  if (queries_.contains(q.name)) {
    AdmitDecision d;
    d.code = AdmitCode::kDuplicateName;
    d.detail = "query already installed: " + q.name;
    return d;
  }
  try {
    return admit_compiled(QueryDemand::of(compile_chained(q, opts)), tenant);
  } catch (const std::exception& e) {
    AdmitDecision d;
    d.code = AdmitCode::kCompileError;
    d.detail = e.what();
    return d;
  }
}

Controller::OpStats Controller::commit_install(const Query& q,
                                               CompiledQuery cq,
                                               QueryDemand d,
                                               const std::string& tenant) {
  static telemetry::Histogram& latency = op_latency("install");
  static telemetry::Counter& rule_ops = op_rule_ops("install");
  const auto res = sw_.install(cq);
  queries_[q.name] = {res.handle, std::move(cq), tenant, std::move(d),
                      res.qids};
  account_install(tenant, queries_[q.name].demand);
  publish_fragmentation();
  latency.observe(res.latency_ms);
  rule_ops.add(res.rule_ops);
  return {res.latency_ms, res.rule_ops, res.qids};
}

Controller::OpStats Controller::install(const Query& q, CompileOptions opts,
                                        const std::string& tenant) {
  check_mutation_guard();
  if (queries_.contains(q.name))
    throw std::invalid_argument("Controller: query already installed: " +
                                q.name);
  CompiledQuery cq = compile_chained(q, opts);
  QueryDemand d = QueryDemand::of(cq);
  AdmitDecision dec = admit_compiled(d, tenant);
  if (!dec.admitted() && dec.would_fit_compacted && auto_compact_) {
    compact();
    dec = admit_compiled(d, tenant);
  }
  record_admission(dec, tenant);
  if (!dec.admitted()) throw AdmissionError(std::move(dec));
  return commit_install(q, std::move(cq), std::move(d), tenant);
}

Controller::InstallOutcome Controller::try_install(const Query& q,
                                                   CompileOptions opts,
                                                   const std::string& tenant) {
  check_mutation_guard();
  InstallOutcome out;
  if (queries_.contains(q.name)) {
    out.decision.code = AdmitCode::kDuplicateName;
    out.decision.detail = "query already installed: " + q.name;
    record_admission(out.decision, tenant);
    return out;
  }
  CompiledQuery cq;
  try {
    cq = compile_chained(q, opts);
  } catch (const std::exception& e) {
    out.decision.code = AdmitCode::kCompileError;
    out.decision.detail = e.what();
    record_admission(out.decision, tenant);
    return out;
  }
  QueryDemand d = QueryDemand::of(cq);
  out.decision = admit_compiled(d, tenant);
  if (!out.decision.admitted() && out.decision.would_fit_compacted &&
      auto_compact_) {
    compact();
    out.decision = admit_compiled(d, tenant);
  }
  record_admission(out.decision, tenant);
  if (!out.decision.admitted()) return out;
  out.stats = commit_install(q, std::move(cq), std::move(d), tenant);
  return out;
}

Controller::OpStats Controller::remove(const std::string& name) {
  static telemetry::Histogram& latency = op_latency("withdraw");
  static telemetry::Counter& rule_ops = op_rule_ops("withdraw");
  check_mutation_guard();
  auto it = queries_.find(name);
  if (it == queries_.end())
    throw std::invalid_argument("Controller: unknown query: " + name);
  const CompiledQuery& cq = it->second.cq;
  const std::size_t ops = cq.num_table_entries();
  const double ms = sw_.remove(it->second.handle);
  account_remove(it->second.tenant, it->second.demand);
  queries_.erase(it);
  publish_fragmentation();
  latency.observe(ms);
  rule_ops.add(ops);
  return {ms, ops, {}};
}

Controller::OpStats Controller::update(const std::string& name,
                                       const Query& new_q,
                                       CompileOptions opts) {
  static telemetry::Histogram& rm_latency = op_latency("withdraw");
  static telemetry::Counter& rm_rule_ops = op_rule_ops("withdraw");
  static telemetry::Histogram& ins_latency = op_latency("install");
  static telemetry::Counter& ins_rule_ops = op_rule_ops("install");
  check_mutation_guard();
  auto it = queries_.find(name);
  if (it == queries_.end())
    throw std::invalid_argument("Controller: unknown query: " + name);
  Query q = new_q;
  q.name = name;
  // Compile BEFORE touching the switch: a compile failure leaves the old
  // query running untouched.  Chaining must ignore the entry being replaced
  // (its traffic overlaps the new version's by definition).
  CompiledQuery cq = compile_chained(q, opts, &name);
  const std::string tenant = it->second.tenant;

  Entry old = std::move(it->second);
  const std::size_t rm_ops = old.cq.num_table_entries();
  const double rm_ms = sw_.remove(old.handle);
  queries_.erase(it);
  NewtonSwitch::InstallResult res;
  try {
    res = sw_.install(cq);
  } catch (...) {
    // The switch rejected the new rules: reinstate the old compilation so
    // the update is a no-op rather than a loss.
    const auto restored = sw_.install(old.cq);
    old.handle = restored.handle;
    old.qids = restored.qids;
    queries_[name] = std::move(old);
    throw;
  }
  QueryDemand d = QueryDemand::of(cq);
  account_remove(tenant, old.demand);
  queries_[name] = {res.handle, std::move(cq), tenant, std::move(d),
                    res.qids};
  account_install(tenant, queries_[name].demand);
  publish_fragmentation();
  rm_latency.observe(rm_ms);
  rm_rule_ops.add(rm_ops);
  ins_latency.observe(res.latency_ms);
  ins_rule_ops.add(res.rule_ops);
  // One controller->switch batch: overheads amortize.
  return {rm_ms + res.latency_ms - 1.0, rm_ops + res.rule_ops, res.qids};
}

const CompiledQuery* Controller::compiled(const std::string& name) const {
  const auto it = queries_.find(name);
  return it == queries_.end() ? nullptr : &it->second.cq;
}

TenantUsage Controller::tenant_usage(const std::string& tenant) const {
  const auto it = usage_.find(tenant);
  return it == usage_.end() ? TenantUsage{} : it->second;
}

const std::string& Controller::tenant_of(const std::string& query) const {
  static const std::string kNone;
  const auto it = queries_.find(query);
  return it == queries_.end() ? kNone : it->second.tenant;
}

std::vector<Controller::QueryInfo> Controller::list_queries() const {
  std::vector<QueryInfo> out;
  out.reserve(queries_.size());
  for (const auto& [name, e] : queries_)
    out.push_back({name, e.tenant, e.qids, &e.demand, e.handle});
  return out;
}

namespace {

// Placement tightness of one installed query: (max stage, min stage, sum of
// register slice end offsets).  compact() only performs moves that strictly
// decrease this key, so every move provably tightens the layout and the
// pass terminates.
using PlacementKey = std::tuple<std::size_t, std::size_t, std::size_t>;

}  // namespace

bool Controller::compact_one(const std::string& name, CompactStats& stats) {
  auto it = queries_.find(name);
  if (it == queries_.end()) return false;
  Entry& e = it->second;
  ++stats.examined;

  // Recompile at the lowest stage the current chain constraints allow.
  CompileOptions opts = e.cq.options;
  opts.min_stage = 0;
  CompiledQuery cand;
  try {
    cand = compile_chained(e.cq.source, opts, &name);
  } catch (const std::exception&) {
    return false;
  }
  const QueryDemand cand_demand = QueryDemand::of(cand);

  // Old placement key from the live segments owned by this query's qids.
  std::size_t old_end_sum = 0;
  {
    std::vector<uint16_t> qids = e.qids;
    std::sort(qids.begin(), qids.end());
    for (const auto& seg : sw_.state_segments())
      if (std::binary_search(qids.begin(), qids.end(), seg.qid))
        old_end_sum += seg.offset + seg.width;
  }
  const PlacementKey old_key{e.cq.max_stage(), e.cq.min_used_stage(),
                             old_end_sum};

  // Candidate placement: simulate the installer's first-fit order on copies
  // of the live allocators (the old query still installed — the mirror).
  std::size_t new_end_sum = 0;
  for (const auto& [stage, sd] : cand_demand.stages) {
    if (sd.reg_widths.empty()) continue;
    RangeAllocator sim = sw_.bank_allocator(stage);
    for (std::size_t w : sd.reg_widths) {
      const auto off = sim.allocate(w);
      if (!off) return false;  // mirror does not fit; skip this query
      new_end_sum += *off + w;
    }
  }
  const PlacementKey new_key{cand.max_stage(), cand.min_used_stage(),
                             new_end_sum};
  if (new_key >= old_key) return false;  // no strict improvement

  // Mirror must also clear table/qid capacity while both copies coexist.
  if (!admit_against_switch(sw_, cand_demand).admitted()) return false;

  // install-new / withdraw-old.  Both run under the caller's quiesced
  // mutation window, so no packet ever sees both copies.
  NewtonSwitch::InstallResult res;
  try {
    res = sw_.install(cand);
  } catch (const std::exception&) {
    return false;  // switch install rolled itself back; nothing changed
  }
  const double rm_ms = sw_.remove(e.handle);
  stats.rule_ops += res.rule_ops + e.cq.num_table_entries();
  stats.latency_ms += res.latency_ms + rm_ms;
  e.handle = res.handle;
  e.cq = std::move(cand);
  e.demand = cand_demand;
  e.qids = res.qids;
  ++stats.moved;
  compaction_moves().add();
  if (rebind_hook_) rebind_hook_(name, res.qids);
  return true;
}

Controller::CompactStats Controller::compact(std::size_t max_moves) {
  check_mutation_guard();
  CompactStats stats;
  stats.stranded_before = fragmentation().stranded_registers;

  // Repeat passes until a full pass moves nothing: a move can open lower
  // holes for queries examined earlier in the same pass.  Every move
  // strictly decreases that query's placement key and perturbs no other
  // query, so the total key sum is strictly decreasing and this terminates.
  bool progressed = true;
  while (progressed && stats.moved < max_moves) {
    progressed = false;
    // Ascending current-placement order: tighten the bottom of the layout
    // first so upper queries can fall into the space it frees.
    std::vector<std::pair<std::size_t, std::string>> order;
    order.reserve(queries_.size());
    for (const auto& [name, e] : queries_)
      order.push_back({e.cq.min_used_stage(), name});
    std::sort(order.begin(), order.end());
    for (const auto& [stage, name] : order) {
      if (stats.moved >= max_moves) break;
      progressed |= compact_one(name, stats);
    }
  }

  stats.stranded_after = fragmentation().stranded_registers;
  publish_fragmentation();
  return stats;
}

}  // namespace newton
