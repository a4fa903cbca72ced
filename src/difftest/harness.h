// Differential execution harness: runs one Scenario through the executions
// below (the raw axis adds one per query it compares) and cross-checks
// their per-window report keysets (docs/difftest.md):
//
//   ref    exact reference interpreter (plain maps/sets)   [tolerant]
//   o0     single switch, no optimizations                 [baseline]
//   oL     single switch, scenario's optimization level    [exact vs o0]
//   rt1    sharded runtime, 1 shard, chain JIT on          [exact vs o0]
//   jit    sharded runtime, 1 shard, chain JIT OFF         [exact vs rt1]
//   rtN    sharded runtime, N shards                       [exact vs rt1]
//   cqe    multi-switch line, CQE-sliced query 0           [exact vs o0]
//   fault  fat-tree + link-failure plan, query 0           [exact vs o0]
//   place  fat-tree + mixed churn plan, incremental vs
//          scratch re-placement, oracle armed              [exact vs each
//                                                           other]
//   raw    bare switch, every query installed raw at stage
//          0; shared traffic is refused                    [exact vs each
//                                                           query alone]
//
// The jit axis pins the compiled per-query executors (src/compile/,
// docs/compile.md) against the interpreter on reports and merged state.
//
// Pipeline-vs-pipeline axes share the exact sketch collision pattern (hash
// seeds depend only on the chain structure), so they must agree exactly.
// The reference axis tolerates calibrated sketch noise; scenarios in the
// small-sketch stress regime skip it (sketch noise would drown the signal)
// and rely on the exact axes.
#pragma once

#include <string>
#include <vector>

#include "difftest/reference.h"
#include "difftest/scenario.h"

namespace newton::difftest {

struct Divergence {
  std::string axis;    // "oL-vs-o0", "rt1-vs-o0", "rtN-vs-rt1", ...
  std::string detail;  // human-readable summary of the first differing keys
};

struct AxisReport {
  std::string axis;
  bool ran = false;
  std::string skip_reason;  // set when !ran
};

struct CheckOutcome {
  std::vector<Divergence> divergences;
  std::vector<AxisReport> axes;
  std::size_t packets = 0;
  uint64_t late_packets = 0;  // folded into a later window by the clock
  // The churn axis's installed set held two queries over shared traffic,
  // chained into disjoint stages (the overlap rule, core/overlap.h).
  bool overlap_chained = false;
  // The raw axis's bare switch refused at least one query by that rule.
  bool raw_refused = false;

  bool ok() const { return divergences.empty(); }
};

// Run every applicable execution of `s` and compare.  Throws only on
// scenario-construction failures (e.g. a query the switch cannot host);
// axes that are individually infeasible (CQE slicing infeasible, fault
// query multi-slice) are skipped and recorded, not errors.
CheckOutcome check_scenario(const Scenario& s);

// One-line rendering of an outcome for logs / replay output.
std::string describe(const CheckOutcome& o);

}  // namespace newton::difftest
