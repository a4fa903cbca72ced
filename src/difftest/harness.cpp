#include "difftest/harness.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>

#include "analyzer/analyzer.h"
#include "core/compose.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "core/overlap.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "net/net_controller.h"
#include "net/network.h"
#include "runtime/sharded_runtime.h"

namespace newton::difftest {

namespace {

// Stages of the single-switch / runtime-primary pipeline; normalize() caps
// scenarios so every install event fits (scenario.h).
constexpr std::size_t kSingleStages = kPipelineStages;
constexpr std::size_t kFaultStages = 12;
// Sketch width at or above which the oracle tolerances of the calibrated
// regime hold (mirrors tests/test_fuzz_compile.cpp's sizing).
constexpr std::size_t kCalibratedWidth = 1u << 15;

CompileOptions level(int o) {
  CompileOptions c;
  c.opt1 = o >= 1;
  c.opt2 = o >= 2;
  c.opt3 = o >= 3;
  return c;
}

// Per-stage register need: the scheduler places at most one S module per
// (stage, branch), and disjoint-traffic branches/queries can share a stage,
// so worst case one row of every branch of every query lands together.
std::size_t bank_size(const Scenario& s) {
  std::size_t need = 16384;
  for (const Query& q : s.queries)
    need += q.sketch_width * q.row_partitions * q.branches.size();
  return std::max<std::size_t>(kStateBankRegisters, need);
}

// The last window any execution of `t` holds open: the last packet may be
// late, so this comes from the clock, not from its timestamp.
uint64_t last_window(const Trace& t, uint64_t wns) {
  return replay_windows(t, wns, [](std::size_t) {},
                        [](std::size_t, uint64_t) {})
      .last_window;
}

bool branch_has(const BranchDef& b, PrimitiveKind k) {
  for (const Primitive& p : b.primitives)
    if (p.kind == k) return true;
  return false;
}

// Every stateful query sized for the calibrated oracle tolerances?
bool calibrated(const Scenario& s) {
  for (const Query& q : s.queries)
    for (const BranchDef& b : q.branches)
      if ((branch_has(b, PrimitiveKind::Distinct) ||
           branch_has(b, PrimitiveKind::Reduce)) &&
          q.sketch_width < kCalibratedWidth)
        return false;
  return true;
}

// Pull the per-window keysets for the scenario's queries out of an
// analyzer.  `only_query` restricts to one query index (CQE/fault axes).
ExecResult collect(const Analyzer& an, const Scenario& s, uint64_t max_w,
                   std::optional<std::size_t> only_query) {
  ExecResult r;
  for (std::size_t qi = 0; qi < s.queries.size(); ++qi) {
    if (only_query && qi != *only_query) continue;
    const std::string name = query_name(qi);
    for (std::size_t bi = 0; bi < s.queries[qi].branches.size(); ++bi)
      for (uint64_t w = 0; w <= max_w; ++w) {
        KeySet ks = an.detected_in_window(name, bi, w, s.window_ns());
        if (!ks.empty()) r.detected[{qi, bi}][w] = std::move(ks);
      }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

// Single switch driven through a Controller; ops apply at window crossings.
ExecResult run_single(const Scenario& s, const Trace& t, int opt) {
  Analyzer an;
  NewtonSwitch sw(1, kSingleStages, &an, bank_size(s));
  Controller ctl(sw);
  // Auto-compaction moves reassign qids; keep the analyzer's qid->query
  // mapping current (same contract the sharded runtime installs).
  ctl.set_rebind_hook(
      [&an](const std::string& name, const std::vector<uint16_t>& qids) {
        for (std::size_t bi = 0; bi < qids.size(); ++bi)
          an.register_qid_any(qids[bi], name, bi);
      });
  const std::vector<ResolvedOp> ops = resolve_ops(s);
  std::size_t next = 0;
  const auto apply_due = [&](uint64_t upto) {
    for (; next < ops.size() && ops[next].at_packet <= upto; ++next) {
      const ResolvedOp& op = ops[next];
      if (op.kind == ResolvedOp::Kind::Install) {
        const auto st = ctl.install(op.def, level(opt));
        for (std::size_t bi = 0; bi < st.qids.size(); ++bi)
          an.register_qid_any(st.qids[bi], op.def.name, bi);
      } else {
        ctl.remove(query_name(op.query));
      }
    }
  };
  apply_due(0);
  const WindowReplay rp =
      replay_windows(t, s.window_ns(), apply_due,
                     [&](std::size_t i, uint64_t) { sw.process(t.packets[i]); });
  sw.flush_telemetry();
  ExecResult r = collect(an, s, rp.last_window, std::nullopt);
  r.late_packets = sw.late_packets();
  return r;
}

// ---------------------------------------------------------------------------
// Control-plane churn plan (the churn axis; docs/admission.md)
// ---------------------------------------------------------------------------

// One derived churn event: either a transient install+withdraw pair of a
// small admissible query, or a provably inadmissible install whose register
// demand exceeds any harness bank (always rejected, whatever else is
// installed).
struct ChurnEvent {
  uint64_t at_packet = 0;
  bool doomed = false;
  std::size_t idx = 0;
};

std::vector<ChurnEvent> make_churn_plan(const Scenario& s,
                                        std::size_t npackets) {
  std::vector<ChurnEvent> plan;
  if (npackets < 4 || s.churn_ops == 0) return plan;
  std::mt19937_64 rng(uint64_t{s.churn_seed} * 0x9e3779b97f4a7c15ull + 3);
  for (std::size_t i = 0; i < s.churn_ops; ++i) {
    ChurnEvent ev;
    ev.at_packet = 1 + rng() % (npackets - 2);
    ev.doomed = rng() % 3 == 0;
    ev.idx = i;
    plan.push_back(ev);
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at_packet < b.at_packet;
                   });
  return plan;
}

// The churn queries: disjoint dport filters (no report overlap with the
// scenario queries), a when-threshold no trace can reach (so even a
// mistakenly active churn query emits nothing), and for doomed events a
// sketch width larger than the whole state bank.
Query churn_query(const Scenario& s, const ChurnEvent& ev) {
  QueryBuilder b(std::string("c").append(std::to_string(ev.idx)));
  b.sketch(2, ev.doomed ? (std::size_t{1} << 21) : 2048);
  b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq,
                             40000 + static_cast<uint32_t>(ev.idx % 1024)))
      .map({Field::DstIp})
      .reduce({Field::DstIp}, Agg::Sum)
      .when(Cmp::Ge, 1'000'000'000u);
  Query q = b.build();
  q.window_ns = s.window_ns();
  q.row_partitions = 1;
  return q;
}

// Sharded runtime; mid-stream ops are handed to the runtime at their packet
// index and apply at its next window barrier — the same boundary the other
// executors use.  `jit` = false forces the interpreter (the
// compiled-vs-interpreted cross-check axis).  `churn` interleaves derived
// install(+withdraw) churn events mid-stream: admissible ones are queued as
// install-then-withdraw pairs inside one barrier batch (never active while
// packets flow), doomed ones are rejected at the barrier and recorded —
// `rejected_out` reports the runtime's final rejection count.
ExecResult run_runtime(const Scenario& s, const Trace& t,
                       std::size_t nshards, bool jit = true,
                       const std::vector<ChurnEvent>* churn = nullptr,
                       std::size_t* rejected_out = nullptr) {
  Analyzer an;
  NewtonSwitch primary(1, kSingleStages, nullptr, bank_size(s));
  RuntimeOptions ro;
  ro.num_shards = nshards;
  ro.burst = s.burst;
  ro.record_snapshots = true;
  ro.jit = jit;
  ShardedRuntime rt(primary, ro, &an);
  const std::vector<ResolvedOp> ops = resolve_ops(s);
  std::size_t next = 0;
  const auto apply = [&](const ResolvedOp& op) {
    if (op.kind == ResolvedOp::Kind::Install)
      rt.install(op.def, level(s.opt_level));
    else
      rt.withdraw(query_name(op.query));
  };
  for (; next < ops.size() && ops[next].at_packet == 0; ++next)
    apply(ops[next]);
  rt.start();
  std::size_t cnext = 0;
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    for (; next < ops.size() && ops[next].at_packet <= i; ++next)
      apply(ops[next]);
    if (churn) {
      for (; cnext < churn->size() && (*churn)[cnext].at_packet <= i;
           ++cnext) {
        const ChurnEvent& ev = (*churn)[cnext];
        const Query cq = churn_query(s, ev);
        rt.install(cq, level(s.opt_level), "churn");
        rt.withdraw(cq.name);  // same batch: applied back-to-back at the
                               // barrier, or a no-op if the install rejects
      }
    }
    rt.process(t.packets[i]);
  }
  rt.finish();
  if (rejected_out) *rejected_out = rt.stats().installs_rejected;
  primary.flush_telemetry();
  ExecResult r = collect(an, s, last_window(t, s.window_ns()), std::nullopt);
  r.late_packets = rt.stats().late_packets;
  for (const WindowSnapshot& snap : rt.snapshots())
    for (const BranchSnapshot& b : snap.branches) {
      if (b.query.size() < 2 || b.query[0] != 'q') continue;
      const std::size_t qi = std::stoul(b.query.substr(1));
      r.state[{qi, b.branch}][snap.window] = b.state;
    }
  return r;
}

// CQE: query 0 sliced over a line of switches (one slice per hop), every
// packet entering at the front host.  Ops for query 0 re-deploy / withdraw
// the sliced query at window crossings.
ExecResult run_cqe_impl(const Scenario& s, const Trace& t,
                        std::string& skip) {
  const CompiledQuery cq = compile_query(s.queries[0], level(s.opt_level));
  std::vector<QuerySlice> slices;
  try {
    slices = slice_query(cq, s.cqe_stages);
  } catch (const std::exception& e) {
    skip = std::string("slicing infeasible: ") + e.what();
    return {};
  }
  // Slices overlap stage ranks in the central allocator, so one virtual
  // stage must hold every suite of query 0.
  const Query& q0 = s.queries[0];
  const std::size_t cqe_bank =
      16384 + q0.sketch_width * q0.sketch_depth * q0.row_partitions;
  Analyzer an;
  Network net(make_line(static_cast<int>(slices.size())), s.cqe_stages, &an,
              cqe_bank);
  NetworkController ctl(net, &an, cqe_bank);
  const std::vector<int> sw_path = net.topo().switches();
  const auto hosts = net.topo().hosts();
  const int src = hosts.front(), dst = hosts.back();

  const std::vector<ResolvedOp> all_ops = resolve_ops(s);
  std::vector<ResolvedOp> ops;
  for (const ResolvedOp& op : all_ops)
    if (op.query == 0) ops.push_back(op);
  std::size_t next = 0;
  const auto apply_due = [&](uint64_t upto) {
    for (; next < ops.size() && ops[next].at_packet <= upto; ++next) {
      if (ops[next].kind == ResolvedOp::Kind::Install)
        ctl.deploy_path(ops[next].def, sw_path, level(s.opt_level));
      else
        ctl.withdraw("q0");
    }
  };
  apply_due(0);
  const WindowReplay rp = replay_windows(
      t, s.window_ns(), apply_due,
      [&](std::size_t i, uint64_t) { net.send(t.packets[i], src, dst); });
  for (int n : net.topo().switches()) net.sw(n).flush_telemetry();
  return collect(an, s, rp.last_window, 0);
}

// Capacity exceptions (slicing infeasibility, register-bank exhaustion on
// re-deploys) skip the axis instead of aborting the scenario — the exact
// single-switch and runtime axes still validate it.
ExecResult run_cqe(const Scenario& s, const Trace& t, std::string& skip) {
  try {
    return run_cqe_impl(s, t, skip);
  } catch (const std::exception& e) {
    skip = std::string("exception: ") + e.what();
    return {};
  }
}

// Deterministic rotating host pairing (same scheme as tests/test_fault.cpp)
// so the fault replay is identical run to run.
std::size_t src_of(std::size_t i, std::size_t n) { return (i * 7 + 1) % n; }
std::size_t dst_of(std::size_t i, std::size_t n) {
  std::size_t d = (i * 11 + 5) % n;
  if (d == src_of(i, n)) d = (d + 1) % n;
  return d;
}

// Fault axis: query 0 resiliently deployed on a fat-tree, replayed under a
// connectivity-preserving random link-failure plan.  Per-window keysets
// must match the single-switch run: reroutes move packets between ingress
// switches but never lose or duplicate a monitored packet.
ExecResult run_fault_impl(const Scenario& s, const Trace& t,
                          std::string& skip) {
  Analyzer an;
  Network net(make_fat_tree(4), kFaultStages, &an, bank_size(s));
  NetworkController ctl(net, &an, bank_size(s));
  const auto& d = ctl.deploy(s.queries[0], level(s.opt_level));
  if (d.slices.size() != 1) {
    skip = "query 0 needs " + std::to_string(d.slices.size()) +
           " slices; fault axis runs single-slice deployments only";
    return {};
  }
  FaultPlan plan =
      make_random_link_plan(net.topo(), s.fault_seed, s.fault_events,
                            t.size(), t.size() / 6 + 1);
  FaultInjector inj(net, plan, &ctl);
  const auto hosts = net.topo().hosts();
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    inj.advance(i);
    net.send(t.packets[i], static_cast<int>(hosts[src_of(i, hosts.size())]),
             static_cast<int>(hosts[dst_of(i, hosts.size())]));
  }
  inj.finish();
  for (int n : net.topo().switches())
    if (net.has_switch(n)) net.sw(n).flush_telemetry();
  return collect(an, s, last_window(t, s.window_ns()), 0);
}

ExecResult run_fault(const Scenario& s, const Trace& t, std::string& skip) {
  try {
    return run_fault_impl(s, t, skip);
  } catch (const std::exception& e) {
    skip = std::string("exception: ") + e.what();
    return {};
  }
}

// Placement axis: the same resilient fat-tree deployment of query 0
// replayed under a mixed link/switch churn plan, once per placement mode.
// The incremental arm additionally arms the scratch-equivalence oracle
// (every re-placement cross-checked against a full `place_resilient`
// recompute; a mismatch throws std::logic_error).  Unlike the fault axis
// this compares the two modes against EACH OTHER, so it needs no
// single-slice or reduce-free restriction: whatever churn does to
// coverage, it must do identically in both modes, byte for byte.
ExecResult run_place_impl(const Scenario& s, const Trace& t,
                          PlacementMode mode, uint64_t* scope_out,
                          std::string& skip) {
  Analyzer an;
  Network net(make_fat_tree(4), kFaultStages, &an, bank_size(s));
  NetworkController ctl(net, &an, bank_size(s));
  ctl.set_placement_mode(mode);
  if (mode == PlacementMode::Incremental) ctl.set_verify_placement(true);
  try {
    ctl.deploy(s.queries[0], level(s.opt_level));
  } catch (const std::logic_error&) {
    throw;  // oracle divergence, not a capacity skip
  } catch (const std::exception& e) {
    skip = std::string("deploy infeasible: ") + e.what();
    return {};
  }
  const FaultPlan plan = make_random_churn_plan(
      net.topo(), s.place_seed, s.place_events, t.size(), t.size() / 6 + 1);
  FaultInjector inj(net, plan, &ctl);
  const auto hosts = net.topo().hosts();
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    inj.advance(i);
    net.send(t.packets[i], static_cast<int>(hosts[src_of(i, hosts.size())]),
             static_cast<int>(hosts[dst_of(i, hosts.size())]));
  }
  inj.finish();
  for (int n : net.topo().switches())
    if (net.has_switch(n)) net.sw(n).flush_telemetry();
  if (scope_out) *scope_out = ctl.fault_stats().replace_scope_switches;
  return collect(an, s, last_window(t, s.window_ns()), 0);
}

// std::logic_error (the placement oracle) is a real divergence; anything
// else (capacity, slicing) skips the axis like the other network axes.
ExecResult run_place(const Scenario& s, const Trace& t, PlacementMode mode,
                     uint64_t* scope_out, std::string& skip,
                     std::vector<Divergence>& divs) {
  try {
    return run_place_impl(s, t, mode, scope_out, skip);
  } catch (const std::logic_error& e) {
    divs.push_back({"place-inc-vs-scratch",
                    std::string("placement oracle: ") + e.what()});
    return {};
  } catch (const std::exception& e) {
    skip = std::string("exception: ") + e.what();
    return {};
  }
}

// ---------------------------------------------------------------------------
// Churn executor: single switch with admission-invariant assertions
// ---------------------------------------------------------------------------

// Everything the control plane can observe about a switch's occupancy.  A
// rejected install must leave this byte-identical, and an admissible
// transient install+withdraw pair must restore it exactly.
struct SwSnapshot {
  std::vector<std::map<std::size_t, std::size_t>> allocs;  // per-stage ranges
  std::vector<std::array<std::size_t, 4>> table_sizes;     // K/H/S/R rules
  std::vector<uint64_t> bank_hash;                         // register bytes
  std::size_t init_size = 0;
  std::size_t free_qids = 0;
  std::size_t installs = 0;
  std::size_t rules = 0;

  bool operator==(const SwSnapshot&) const = default;
};

SwSnapshot snapshot_switch(NewtonSwitch& sw) {
  SwSnapshot snap;
  const ModuleInstances& inst = sw.modules();
  for (std::size_t st = 0; st < sw.num_stages(); ++st) {
    snap.allocs.push_back(sw.bank_allocator(st).allocations());
    snap.table_sizes.push_back(
        {inst.k[st]->table().size(), inst.h[st]->table().size(),
         inst.s[st]->table().size(), inst.r[st]->table().size()});
    // Hash only the ALLOCATED ranges: a fresh install sweeps its new slice
    // (zeroing residual values a withdrawn query left in the free space),
    // so free-range bytes are dont-care — only live query state must
    // survive a rejected or transient install untouched.
    const RegisterArray& bank = sw.bank(st);
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto& [off, width] : snap.allocs.back()) {
      for (std::size_t i = off; i < off + width && i < bank.size(); ++i) {
        h ^= bank.read(i);
        h *= 0x100000001b3ull;
      }
    }
    snap.bank_hash.push_back(h);
  }
  snap.init_size = sw.init_table().table().size();
  snap.free_qids = sw.free_qids();
  snap.installs = sw.num_installs();
  snap.rules = sw.installed_rule_count();
  return snap;
}

// Independent capacity oracle: plain counters of what every currently
// installed query was measured to demand.  The switch's occupancy must match
// the sum exactly at all times — no leaked registers, qids or init entries.
struct ChurnOracle {
  struct Rec {
    std::size_t regs = 0, qids = 0, init = 0;
  };
  std::map<std::string, Rec> installed;
  std::size_t total_qids = 0;  // switch qid space, captured while empty

  void on_install(const std::string& name, const QueryDemand& d) {
    installed[name] = {d.total_registers, d.qids, d.init_entries};
  }
  void on_remove(const std::string& name) { installed.erase(name); }

  std::string check(const NewtonSwitch& sw) const {
    std::size_t regs = 0, qids = 0, init = 0;
    for (const auto& [n, r] : installed) {
      regs += r.regs;
      qids += r.qids;
      init += r.init;
    }
    std::size_t used = 0;
    for (std::size_t st = 0; st < sw.num_stages(); ++st)
      used += sw.bank_allocator(st).used();
    if (used != regs)
      return "register conservation: switch has " + std::to_string(used) +
             " allocated, installed queries demand " + std::to_string(regs);
    if (sw.free_qids() != total_qids - qids)
      return "qid conservation: " + std::to_string(sw.free_qids()) +
             " free, expected " + std::to_string(total_qids - qids);
    if (sw.init_table().table().size() != init)
      return "init-entry conservation: table has " +
             std::to_string(sw.init_table().table().size()) + ", expected " +
             std::to_string(init);
    return "";
  }
};

// Like run_single at the scenario's opt level, but with the churn plan
// interleaved: every event runs a pre-admission check, the attempt, and the
// post-state assertions.  Invariant violations land in `out` with axis
// "churn-invariant"; the returned reports must still be byte-identical to
// the churn-free o0 baseline (checked by the caller).  `overlap_chained` is
// set once the installed set holds two queries over shared traffic.
ExecResult run_churn(const Scenario& s, const Trace& t,
                     const std::vector<ChurnEvent>& plan,
                     std::vector<Divergence>& out, bool& overlap_chained) {
  Analyzer an;
  NewtonSwitch sw(1, kSingleStages, &an, bank_size(s));
  Controller ctl(sw);
  // The overlap rule over the installed set, checked apart from the
  // Controller's chaining.
  const auto overlap_rule = [&](const std::string& at) {
    std::vector<const CompiledQuery*> placed;
    for (const Controller::QueryInfo& info : ctl.list_queries())
      placed.push_back(ctl.compiled(info.name));
    if (const std::string err = check_disjoint_stages(placed); !err.empty())
      out.push_back({"churn-invariant", at + ": " + err});
    for (std::size_t i = 0; i < placed.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        overlap_chained |= traffic_overlaps(*placed[i], *placed[j]);
  };
  ctl.set_rebind_hook([&](const std::string& name,
                          const std::vector<uint16_t>& qids) {
    for (std::size_t bi = 0; bi < qids.size(); ++bi)
      an.register_qid_any(qids[bi], name, bi);
    overlap_rule("after compaction move");
  });
  ChurnOracle oracle;
  oracle.total_qids = sw.free_qids();
  const auto invariant = [&](const char* what, bool ok, std::string why) {
    if (!ok)
      out.push_back({"churn-invariant", std::string(what) + ": " + why});
  };
  const auto conserve = [&](const char* at) {
    overlap_rule(at);
    const std::string err = oracle.check(sw);
    if (!err.empty())
      out.push_back({"churn-invariant", std::string(at) + ": " + err});
    if (const std::size_t n = sw.stray_registers())
      out.push_back(
          {"churn-invariant",
           std::string(at).append(": ").append(std::to_string(n)).append(
               " registers outside every allocated segment are non-zero")});
  };

  const std::vector<ResolvedOp> ops = resolve_ops(s);
  std::size_t next = 0, cnext = 0;
  const auto apply_scenario_due = [&](uint64_t upto) {
    for (; next < ops.size() && ops[next].at_packet <= upto; ++next) {
      const ResolvedOp& op = ops[next];
      const std::string name = query_name(op.query);
      if (op.kind == ResolvedOp::Kind::Install) {
        const auto st = ctl.install(op.def, level(s.opt_level));
        for (std::size_t bi = 0; bi < st.qids.size(); ++bi)
          an.register_qid_any(st.qids[bi], op.def.name, bi);
        oracle.on_install(name, QueryDemand::of(*ctl.compiled(name)));
      } else {
        ctl.remove(name);
        oracle.on_remove(name);
      }
      conserve("after scenario op");
    }
  };
  const auto apply_churn_due = [&](uint64_t upto) {
    for (; cnext < plan.size() && plan[cnext].at_packet <= upto; ++cnext) {
      const ChurnEvent& ev = plan[cnext];
      const Query cq = churn_query(s, ev);
      const SwSnapshot before = snapshot_switch(sw);
      const AdmitDecision pre = ctl.admit(cq, level(s.opt_level), "churn");
      const auto outcome = ctl.try_install(cq, level(s.opt_level), "churn");
      if (ev.doomed)
        invariant("doomed install", !outcome.admitted(),
                  "oversized query was admitted");
      if (pre.admitted()) {
        invariant("admit implies install", outcome.admitted(),
                  "pre-admitted query failed to install: " +
                      outcome.decision.to_string());
      } else if (!pre.would_fit_compacted) {
        // No compaction escape hatch: the attempt must reject with the same
        // code the pure check returned.
        invariant("decision determinism", !outcome.admitted(),
                  "pure admission rejected but the install succeeded");
        invariant("decision determinism",
                  outcome.decision.code == pre.code,
                  std::string("codes differ: ") + to_string(pre.code) +
                      " vs " + to_string(outcome.decision.code));
      }
      if (!outcome.admitted()) {
        // A fragmentation-rejected attempt may have run (and kept) a
        // compaction pass; only compaction-free rejections must be inert.
        if (!pre.would_fit_compacted)
          invariant("rejected install is side-effect-free",
                    snapshot_switch(sw) == before,
                    "switch state changed across a rejected install");
      } else {
        oracle.on_install(cq.name, QueryDemand::of(*ctl.compiled(cq.name)));
        conserve("after transient install");
        ctl.remove(cq.name);
        oracle.on_remove(cq.name);
        if (pre.admitted())  // no compaction ran: exact reversal required
          invariant("install+withdraw restores state",
                    snapshot_switch(sw) == before,
                    "transient install+withdraw left residue");
      }
      conserve("after churn event");
    }
  };

  apply_scenario_due(0);
  const WindowReplay rp = replay_windows(
      t, s.window_ns(),
      [&](std::size_t i) {
        apply_scenario_due(i);
        apply_churn_due(i);
      },
      [&](std::size_t i, uint64_t) { sw.process(t.packets[i]); });
  sw.flush_telemetry();
  return collect(an, s, rp.last_window, std::nullopt);
}

// ---------------------------------------------------------------------------
// Raw installs: the switch's own overlap rule (core/overlap.h)
// ---------------------------------------------------------------------------

// The scenario queries `qs` raw-installed, in order and before the stream,
// on one bare switch: each compiled at the scenario's opt level at stage 0,
// with no Controller to chain it.  The switch refuses every query that
// shares traffic with one it holds; `qs` keeps the rest.  A refusal that
// changed anything on the switch is a divergence.
ExecResult run_raw(const Scenario& s, const Trace& t,
                   std::vector<std::size_t>& qs,
                   std::vector<Divergence>& out) {
  Analyzer an;
  NewtonSwitch sw(1, kSingleStages, &an, bank_size(s));
  std::vector<std::size_t> kept;
  for (const std::size_t qi : qs) {
    const SwSnapshot before = snapshot_switch(sw);
    try {
      const auto res =
          sw.install(compile_query(s.queries[qi], level(s.opt_level)));
      for (std::size_t bi = 0; bi < res.qids.size(); ++bi)
        an.register_qid_any(res.qids[bi], query_name(qi), bi);
      kept.push_back(qi);
    } catch (const std::invalid_argument&) {
      if (!(snapshot_switch(sw) == before))
        out.push_back({"raw-vs-solo",
                       query_name(qi).append(": a refused install left "
                                             "state on the switch")});
    }
  }
  qs = std::move(kept);
  const WindowReplay rp =
      replay_windows(t, s.window_ns(), [](std::size_t) {},
                     [&](std::size_t i, uint64_t) { sw.process(t.packets[i]); });
  sw.flush_telemetry();
  return collect(an, s, rp.last_window, std::nullopt);
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

std::string render_key(const KeyArray& k) {
  std::ostringstream os;
  os << "(";
  for (std::size_t f = 0; f < kNumFields; ++f) {
    if (k[f] == 0) continue;
    os << field_name(static_cast<Field>(f)) << "=" << k[f] << " ";
  }
  os << ")";
  return os.str();
}

KeySet minus(const KeySet& a, const KeySet& b) {
  KeySet out;
  for (const KeyArray& k : a)
    if (!b.contains(k)) out.insert(k);
  return out;
}

// Exact per-window keyset equality between two executions.
void diff_exact(const ExecResult& a, const ExecResult& b, const char* axis,
                std::optional<std::size_t> only_query,
                std::vector<Divergence>& out) {
  std::set<std::pair<std::size_t, std::size_t>> chains;
  for (const auto& [qb, _] : a.detected) chains.insert(qb);
  for (const auto& [qb, _] : b.detected) chains.insert(qb);
  for (const auto& qb : chains) {
    if (only_query && qb.first != *only_query) continue;
    static const std::map<uint64_t, KeySet> kEmpty;
    const auto ita = a.detected.find(qb);
    const auto itb = b.detected.find(qb);
    const auto& wa = ita == a.detected.end() ? kEmpty : ita->second;
    const auto& wb = itb == b.detected.end() ? kEmpty : itb->second;
    std::set<uint64_t> windows;
    for (const auto& [w, _] : wa) windows.insert(w);
    for (const auto& [w, _] : wb) windows.insert(w);
    for (uint64_t w : windows) {
      static const KeySet kNone;
      const auto ka = wa.count(w) ? wa.at(w) : kNone;
      const auto kb = wb.count(w) ? wb.at(w) : kNone;
      if (ka == kb) continue;
      const KeySet missing = minus(ka, kb);
      const KeySet extra = minus(kb, ka);
      std::ostringstream os;
      os << "q" << qb.first << " branch " << qb.second << " window " << w
         << ": " << missing.size() << " missing, " << extra.size()
         << " extra";
      if (!missing.empty()) os << "; e.g. missing " << render_key(*missing.begin());
      else if (!extra.empty()) os << "; e.g. extra " << render_key(*extra.begin());
      out.push_back({axis, os.str()});
      break;  // one divergence per chain is enough detail
    }
  }
}

// Merged end-of-window register state must agree bit for bit between shard
// counts — this is the check that exercises the window merge itself (sums
// re-added, bloom bits or-ed), independent of report timing.
void diff_state(const ExecResult& a, const ExecResult& b, const char* axis,
                std::vector<Divergence>& out) {
  std::set<std::pair<std::size_t, std::size_t>> chains;
  for (const auto& [qb, _] : a.state) chains.insert(qb);
  for (const auto& [qb, _] : b.state) chains.insert(qb);
  for (const auto& qb : chains) {
    static const std::map<uint64_t, std::vector<uint32_t>> kEmpty;
    const auto ita = a.state.find(qb);
    const auto itb = b.state.find(qb);
    const auto& wa = ita == a.state.end() ? kEmpty : ita->second;
    const auto& wb = itb == b.state.end() ? kEmpty : itb->second;
    std::set<uint64_t> windows;
    for (const auto& [w, _] : wa) windows.insert(w);
    for (const auto& [w, _] : wb) windows.insert(w);
    for (uint64_t w : windows) {
      static const std::vector<uint32_t> kNone;
      const auto& sa = wa.count(w) ? wa.at(w) : kNone;
      const auto& sb = wb.count(w) ? wb.at(w) : kNone;
      if (sa == sb) continue;
      std::ostringstream os;
      os << "q" << qb.first << " branch " << qb.second << " window " << w
         << ": merged state differs (" << sa.size() << " vs " << sb.size()
         << " registers";
      for (std::size_t i = 0; i < std::min(sa.size(), sb.size()); ++i)
        if (sa[i] != sb[i]) {
          os << "; first at [" << i << "]: " << sa[i] << " vs " << sb[i];
          break;
        }
      os << ")";
      out.push_back({axis, os.str()});
      break;
    }
  }
}

// Oracle comparison: union-over-windows keysets with the calibrated sketch
// tolerances (distinct => bounded false negatives, reduce+when => bounded
// false positives from count-min overcounting).
void diff_reference(const ExecResult& ref, const ExecResult& got,
                    const Scenario& s, std::vector<Divergence>& out) {
  for (std::size_t qi = 0; qi < s.queries.size(); ++qi)
    for (std::size_t bi = 0; bi < s.queries[qi].branches.size(); ++bi) {
      const BranchDef& b = s.queries[qi].branches[bi];
      const KeySet expect = ref.passing_union(qi, bi);
      const KeySet seen = got.passing_union(qi, bi);
      const KeySet missing = minus(expect, seen);
      const KeySet extra = minus(seen, expect);
      const std::size_t fn_allow =
          branch_has(b, PrimitiveKind::Distinct)
              ? std::max<std::size_t>(4, expect.size() / 100)
              : 0;
      const std::size_t fp_allow =
          branch_has(b, PrimitiveKind::Reduce)
              ? std::max<std::size_t>(2, expect.size() / 100)
              : 0;
      if (missing.size() <= fn_allow && extra.size() <= fp_allow) continue;
      std::ostringstream os;
      os << "q" << qi << " branch " << bi << ": pipeline vs oracle: "
         << missing.size() << " missing (allowed " << fn_allow << "), "
         << extra.size() << " extra (allowed " << fp_allow << "), "
         << expect.size() << " expected";
      if (!missing.empty()) os << "; e.g. missing " << render_key(*missing.begin());
      else if (!extra.empty()) os << "; e.g. extra " << render_key(*extra.begin());
      out.push_back({"ref-vs-o0", os.str()});
    }
}

}  // namespace

CheckOutcome check_scenario(const Scenario& s) {
  CheckOutcome o;
  const Trace t = s.trace.build();
  o.packets = t.size();

  const ExecResult ref = run_reference(s, t);
  const ExecResult o0 = run_single(s, t, 0);
  o.axes.push_back({"o0", true, ""});
  if (calibrated(s)) {
    diff_reference(ref, o0, s, o.divergences);
    o.axes.push_back({"ref-vs-o0", true, ""});
  } else {
    o.axes.push_back(
        {"ref-vs-o0", false, "stress-regime sketches: oracle axis skipped"});
  }

  const ExecResult oL = run_single(s, t, s.opt_level);
  diff_exact(oL, o0, "oL-vs-o0", std::nullopt, o.divergences);
  o.axes.push_back({"oL-vs-o0", true, ""});

  const ExecResult rt1 = run_runtime(s, t, 1);
  diff_exact(rt1, o0, "rt1-vs-o0", std::nullopt, o.divergences);
  o.axes.push_back({"rt1-vs-o0", true, ""});

  // One window clock: the reference, the switch and the runtime's demux
  // fold exactly the same packets.
  o.late_packets = ref.late_packets;
  if (o0.late_packets != ref.late_packets ||
      rt1.late_packets != ref.late_packets)
    o.divergences.push_back(
        {"late-count", "late packets: reference " +
                           std::to_string(ref.late_packets) + ", o0 " +
                           std::to_string(o0.late_packets) + ", rt1 " +
                           std::to_string(rt1.late_packets)});

  // Compiled-vs-interpreted: rt1 above ran with the chain JIT on (the
  // runtime default), so re-running it with the JIT forced off pins the
  // compiled executors against the interpreter — reports AND merged
  // end-of-window state must agree byte-for-byte.
  const ExecResult rti = run_runtime(s, t, 1, /*jit=*/false);
  diff_exact(rti, rt1, "jit-vs-rt1", std::nullopt, o.divergences);
  diff_state(rti, rt1, "jit-vs-rt1", o.divergences);
  o.axes.push_back({"jit-vs-rt1", true, ""});

  if (s.shards > 1) {
    const ExecResult rtN = run_runtime(s, t, s.shards);
    diff_exact(rtN, rt1, "rtN-vs-rt1", std::nullopt, o.divergences);
    diff_state(rtN, rt1, "rtN-vs-rt1", o.divergences);
    o.axes.push_back({"rtN-vs-rt1", true, ""});
  }

  // Raw installs: every query the bare switch accepted beside the others
  // reports exactly what it reports alone there.
  if (s.queries.size() >= 2) {
    std::vector<std::size_t> kept(s.queries.size());
    std::iota(kept.begin(), kept.end(), std::size_t{0});
    const ExecResult raw = run_raw(s, t, kept, o.divergences);
    o.raw_refused = kept.size() < s.queries.size();
    if (kept.size() >= 2)
      for (const std::size_t qi : kept) {
        std::vector<std::size_t> solo{qi};
        diff_exact(raw, run_raw(s, t, solo, o.divergences), "raw-vs-solo",
                   qi, o.divergences);
      }
    o.axes.push_back({"raw-vs-solo", true, ""});
  }

  if (s.churn_ops > 0) {
    const std::vector<ChurnEvent> plan = make_churn_plan(s, t.size());
    std::size_t doomed = 0;
    for (const ChurnEvent& ev : plan) doomed += ev.doomed ? 1 : 0;

    // Single-switch churn with per-event admission/rollback assertions;
    // reports must be byte-identical to the churn-free baseline.
    std::vector<Divergence> inv;
    const ExecResult ch = run_churn(s, t, plan, inv, o.overlap_chained);
    for (Divergence& d : inv) o.divergences.push_back(std::move(d));
    diff_exact(ch, o0, "churn-vs-o0", std::nullopt, o.divergences);
    o.axes.push_back({"churn-vs-o0", true, ""});

    // The same plan through the threaded runtime (install/withdraw queued
    // mid-stream, rejections recorded at barriers) — the TSan target.
    std::size_t rejected = 0;
    const ExecResult chrt =
        run_runtime(s, t, 1, /*jit=*/true, &plan, &rejected);
    diff_exact(chrt, rt1, "churnrt-vs-rt1", std::nullopt, o.divergences);
    diff_state(chrt, rt1, "churnrt-vs-rt1", o.divergences);
    if (rejected < doomed)
      o.divergences.push_back(
          {"churnrt-vs-rt1",
           "runtime recorded " + std::to_string(rejected) +
               " rejected installs; the plan queued " +
               std::to_string(doomed) + " inadmissible ones"});
    o.axes.push_back({"churnrt-vs-rt1", true, ""});
  }

  if (s.cqe_stages > 0) {
    std::string skip;
    const ExecResult cqe = run_cqe(s, t, skip);
    if (skip.empty()) {
      diff_exact(cqe, o0, "cqe-vs-o0", 0, o.divergences);
      o.axes.push_back({"cqe-vs-o0", true, ""});
    } else {
      o.axes.push_back({"cqe-vs-o0", false, skip});
    }
  }

  if (s.fault) {
    std::string skip;
    const ExecResult flt = run_fault(s, t, skip);
    if (skip.empty()) {
      diff_exact(flt, o0, "fault-vs-o0", 0, o.divergences);
      o.axes.push_back({"fault-vs-o0", true, ""});
    } else {
      o.axes.push_back({"fault-vs-o0", false, skip});
    }
  }

  if (s.place_events > 0) {
    std::string skip;
    uint64_t scope_scr = 0, scope_inc = 0;
    const std::size_t before = o.divergences.size();
    const ExecResult scr = run_place(s, t, PlacementMode::Scratch,
                                     &scope_scr, skip, o.divergences);
    ExecResult inc;
    if (skip.empty() && o.divergences.size() == before)
      inc = run_place(s, t, PlacementMode::Incremental, &scope_inc, skip,
                      o.divergences);
    if (!skip.empty()) {
      o.axes.push_back({"place-inc-vs-scratch", false, skip});
    } else {
      if (o.divergences.size() == before) {
        diff_exact(inc, scr, "place-inc-vs-scratch", 0, o.divergences);
        // Scratch re-evaluates every live switch per event; incremental
        // must never relax a wider scope than that.
        if (scope_inc > scope_scr)
          o.divergences.push_back(
              {"place-inc-vs-scratch",
               "incremental re-placement scope " + std::to_string(scope_inc) +
                   " switches exceeds the scratch baseline " +
                   std::to_string(scope_scr)});
      }
      o.axes.push_back({"place-inc-vs-scratch", true, ""});
    }
  }
  return o;
}

std::string describe(const CheckOutcome& o) {
  std::ostringstream os;
  os << o.packets << " packets";
  if (o.late_packets > 0) os << " (" << o.late_packets << " late)";
  os << "; axes:";
  for (const AxisReport& a : o.axes) {
    os << " " << a.axis;
    if (!a.ran) os << "[skipped: " << a.skip_reason << "]";
  }
  if (o.divergences.empty()) {
    os << "; OK";
  } else {
    os << "; " << o.divergences.size() << " divergence(s):";
    for (const Divergence& d : o.divergences)
      os << "\n  [" << d.axis << "] " << d.detail;
  }
  return os.str();
}

}  // namespace newton::difftest
