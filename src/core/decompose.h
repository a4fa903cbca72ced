// Query-primitive decomposition (§4.1) and the per-branch module chain fed
// into the composition algorithm (§4.3).
//
// Each primitive expands into one or more *suites* of the four modules:
//
//   filter  -> per predicate clause: K (select field), H (direct mode),
//              S (bypass: state := hash), R (range-match state, else stop)
//   map     -> K only (H/S/R placeholders, removed by Opt.2)
//   distinct-> per sketch row: K, H (row hash), S (or-SALU), R (min-combine);
//              the last row's R passes only first occurrences (min == 0)
//   reduce  -> per sketch row: K, H, S (add-SALU), R (min-combine = CM query)
//   when    -> R only (threshold range over the global result)
//
// The terminal R of a branch reports (mirrors the metadata set) on its pass
// path.  Count-based `when >= Th` thresholds use the exact-crossing match
// [Th, Th] so each key reports once per window; byte sums use a window of
// one MTU (the analyzer dedups).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/module_config.h"
#include "core/query.h"
#include "dataplane/match_table.h"

namespace newton {

// One module of a branch's chain.  `rule_needed` distinguishes real module
// rules from placeholders a non-optimized compilation still places
// (unused modules, Opt.2's target).
struct ModuleSpec {
  ModuleType type = ModuleType::K;
  std::size_t branch = 0;
  std::size_t prim = 0;
  std::size_t suite = 0;
  bool rule_needed = true;
  int set = 0;      // metadata set (Opt.3); 0 until assigned
  int stage = -1;   // physical stage (composition output)

  KConfig k;
  HConfig h;
  SConfig s;
  RConfig r;

  // Register-range allocation bookkeeping for stateful S modules (set at
  // install/offset-resolution time; mirrored into the paired H's offset).
  uint32_t alloc_offset = 0;
  uint32_t alloc_width = 0;
};

// newton_init rule: ternary key over [sip, dip, sport, dport, proto, flags].
struct InitEntrySpec {
  std::vector<MatchWord> key;  // 6 words
  int priority = 10;

  // True if the traffic classes of two init entries can overlap.
  bool overlaps(const InitEntrySpec& other) const;

  static InitEntrySpec match_all();
};

struct BranchModules {
  std::string name;
  std::size_t branch_index = 0;
  std::vector<ModuleSpec> modules;  // chain order
  InitEntrySpec init;
  std::size_t chain_group = 0;  // overlap class (core/overlap.h)
};

// Decompose one branch into its naive module chain (every suite gets all
// four modules; placeholders flagged via rule_needed=false).  `opt1`
// absorbs leading init-expressible filters into the init entry.  Opt.2
// (placeholder/redundant-K removal) and Opt.3 (set labels) are applied by
// the composer (compose.h), mirroring the structure of Algorithm 1.
BranchModules decompose_branch(const Query& q, std::size_t branch_index,
                               bool opt1);

// The masks K applies for a key list.
std::array<uint32_t, kNumFields> masks_of(const std::vector<KeySel>& keys);

}  // namespace newton
