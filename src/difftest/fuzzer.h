// Deterministic coverage-guided differential fuzzer (docs/difftest.md).
//
// The fuzz loop generates or mutates Scenarios, runs every one through the
// differential harness (difftest/harness.h) and keeps the scenarios that
// light up new telemetry coverage as the mutation corpus.  Coverage is the
// PR-2 telemetry registry turned into a bitmap: after each run the global
// registry's snapshot is folded through telemetry::coverage_keys() — one
// key per (series identity x magnitude bucket) — and a scenario that sets a
// previously unseen bit is retained.
//
// Divergent scenarios are minimized (difftest/minimize.h) and written as
// self-contained seed files replayable with `newton_tool fuzz --replay`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "difftest/scenario.h"

namespace newton::difftest {

struct FuzzOptions {
  uint64_t seed = 0;          // base seed; 0 = caller must set one
  std::size_t max_runs = 0;   // stop after this many scenarios (0 = no cap)
  double max_seconds = 0;     // wall-clock budget (0 = no budget)
  std::string corpus_dir;     // optional: load *.nds seeds into the corpus
  std::string out_dir = ".";  // failing scenario files land here
  bool minimize = true;       // minimize failures before writing them
  bool verbose = false;       // per-run progress lines
  std::size_t max_failures = 5;  // stop early after this many divergences
  // Force the control-plane churn axis on every scenario the campaign runs
  // (`newton_tool fuzz --churn`): scenarios generated or mutated without
  // churn get a plan derived from their own id.  The CI churn job uses this
  // to guarantee every run exercises admission/rollback invariants.
  bool force_churn = false;
  // Force the placement axis on every scenario (`newton_tool fuzz
  // --placement`): scenarios without one get a churn plan derived from
  // their own id, so every run replays incremental vs scratch re-placement
  // with the equivalence oracle armed.  The CI fleet lane uses this.
  bool force_placement = false;
  // Optional: write the retained coverage corpus as *.nds files into this
  // directory at campaign end (nightly runs publish it as an artifact so
  // later campaigns start warm).
  std::string save_corpus_dir;
};

struct FuzzStats {
  std::size_t runs = 0;
  std::size_t divergent = 0;       // scenarios with >= 1 divergence
  std::size_t corpus = 0;          // retained corpus size at exit
  std::size_t coverage_bits = 0;   // distinct coverage bits ever set
  std::size_t late_scenarios = 0;  // scenarios whose trace had late packets
  // Scenarios whose place-inc-vs-scratch axis ran (not skipped): the only
  // cross-check of the two re-placement modes' reconciliations.
  std::size_t placement_scenarios = 0;
  // Scenarios whose churn axis installed two queries over shared traffic,
  // so the overlap-rule oracle checked a real chain.
  std::size_t overlap_chain_scenarios = 0;
  // Scenarios whose raw axis saw the switch refuse an install that breaks
  // the overlap rule.
  std::size_t raw_refusal_scenarios = 0;
  std::vector<std::string> failure_files;  // written scenario files

  bool ok() const { return divergent == 0; }
};

// Run the fuzz campaign.  Fully deterministic for a fixed (seed, max_runs)
// pair with no time budget; the time budget only truncates the run
// sequence, it never reorders it.
FuzzStats run_fuzzer(const FuzzOptions& opt);

// Replay one scenario file through the harness; prints the outcome.
// Returns 0 when all axes agree, 1 on divergence (after minimizing into
// `out_dir` when `minimize` is set), 2 when the file cannot be parsed.
int replay_file(const std::string& path, bool minimize,
                const std::string& out_dir);

}  // namespace newton::difftest
