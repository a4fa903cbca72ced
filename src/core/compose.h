// Module rule composition — Algorithm 1 (§4.3).
//
// Takes the decomposed module chains of all branches of a query and
// produces a stage assignment:
//
//   Opt.1  front filters absorbed by newton_init (done in decompose).
//   Opt.2  removes placeholder modules and redundant K modules whose
//          operation keys are already selected.
//   Opt.3  assigns the two metadata-set labels so that modules of
//          contiguous primitives can share physical stages ("vertical"
//          composition), restoring K modules when a suite moves to a set
//          where its keys are not yet selected.
//
// Scheduling is list scheduling over an explicit hazard DAG: RAW edges
// (K->H->S->R within a dataflow), WAW/WAR edges per metadata-set field,
// the R global-result chain, and side-effect gating (a stateful S must
// execute after every earlier R that can stop the query, so stopped
// packets leave no state behind).  Branches in one overlap class
// (core/overlap.h) are *chained* into disjoint stage ranges (they share the
// physical metadata sets); classes over disjoint traffic share stages with
// different rules — the multiplexing behind P-Newton (Fig. 16).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/decompose.h"
#include "core/query.h"

namespace newton {

struct CompileOptions {
  bool opt1 = true;
  bool opt2 = true;
  bool opt3 = true;
  // First stage the query may use (raised to core/overlap.h's chain_floor so
  // same-traffic queries chain; S-Newton in Fig. 16).
  std::size_t min_stage = 0;
  // Scheduling sanity bound.
  std::size_t max_stages = 512;
};

struct CompiledQuery {
  std::string name;
  Query source;
  CompileOptions options;
  std::vector<BranchModules> branches;

  // --- metrics (the paper's module/stage counts) ---
  std::size_t num_modules() const;       // module rules across branches
  std::size_t num_init_entries() const { return branches.size(); }
  std::size_t num_table_entries() const {
    return num_modules() + num_init_entries();
  }
  std::size_t num_stages() const;        // distinct stages used
  std::size_t max_stage() const;         // highest stage index used
  std::size_t min_used_stage() const;
  // Largest stage count used by one branch (sub-query): the per-sub-query
  // pipeline depth the paper's "<= 10 stages" claim refers to.  Same-traffic
  // sub-queries (Q8) additionally serialize, which num_stages() captures.
  std::size_t branch_stage_span() const;
};

// Compile a query: decompose (+Opt.1), then Opt.2/Opt.3 + scheduling.
CompiledQuery compile_query(const Query& q, const CompileOptions& opts = {});

// Recompute the hazard DAG for the compiled schedule and verify every
// constraint, and the overlap rule over every branch pair, holds; returns an
// empty string on success, else a diagnostic.
std::string validate_schedule(const CompiledQuery& cq);

// Hazard-DAG edges for one branch: edges[i] lists module indices that must
// be scheduled in strictly earlier stages than module i.  Exposed for the
// validator and tests.
std::vector<std::vector<std::size_t>> hazard_deps(
    const std::vector<ModuleSpec>& chain);

}  // namespace newton
