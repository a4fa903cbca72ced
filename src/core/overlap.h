// The one overlap rule (docs/ARCHITECTURE.md): branches whose newton_init
// entries can match one packet share the PHV's metadata sets and global
// result, so they must occupy disjoint stage ranges (S-Newton, Fig. 16).
// Compose, validate_schedule, the scheduler, Controller and deploy_sole place
// by it, and NewtonSwitch::install refuses a whole query that breaks it.
#pragma once

#include <algorithm>
#include <climits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compose.h"

namespace newton {

// Classes of n items under the transitive closure of overlaps(i, j), j < i:
// each item's class is the smallest index in it.
template <class Overlaps>
std::vector<std::size_t> overlap_classes(std::size_t n, Overlaps overlaps) {
  std::vector<std::size_t> cls(n);
  std::iota(cls.begin(), cls.end(), 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (cls[i] != cls[j] && overlaps(i, j)) {
        const std::size_t keep = std::min(cls[i], cls[j]);
        std::replace(cls.begin(), cls.end(), std::max(cls[i], cls[j]), keep);
      }
  return cls;
}

// Whether a branch of `a` and a branch of `b` can match one packet.
inline bool traffic_overlaps(const CompiledQuery& a, const CompiledQuery& b) {
  for (const BranchModules& ba : a.branches)
    for (const BranchModules& bb : b.branches)
      if (ba.init.overlaps(bb.init)) return true;
  return false;
}

// Lowest stage `q`, compiled with `opts`, may start at: past every query it
// shares traffic with in `placed`, a range of const CompiledQuery*.
template <class Placed>
std::size_t chain_floor(const Query& q, const CompileOptions& opts,
                        Placed&& placed) {
  std::size_t floor = 0;
  for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
    // q's init entry as compile_query gives it.
    const BranchModules probe = decompose_branch(q, bi, opts.opt1);
    for (const CompiledQuery* p : placed)
      for (const BranchModules& b : p->branches)
        if (probe.init.overlaps(b.init))
          floor = std::max(floor, p->max_stage() + 1);
  }
  return floor;
}

// Stage range [lo, hi] of a branch's modules; hi < lo when it has none.
inline std::pair<int, int> stage_range(const BranchModules& b) {
  int lo = INT_MAX, hi = -1;
  for (const ModuleSpec& m : b.modules) {
    lo = std::min(lo, m.stage);
    hi = std::max(hi, m.stage);
  }
  return {lo, hi};
}

// "" when branches `a` (stages `ra`) and `b` (stages `rb`) may share a
// pipeline; else the diagnostic: they can match one packet and their stage
// ranges meet.
inline std::string stage_conflict(const BranchModules& a,
                                  std::pair<int, int> ra,
                                  const BranchModules& b,
                                  std::pair<int, int> rb) {
  if (ra.first > rb.second || rb.first > ra.second || !a.init.overlaps(b.init))
    return {};
  return std::string("same-traffic branches overlap in stages: ")
      .append(a.name)
      .append(" vs ")
      .append(b.name);
}

// "" when overlapping branches of `placed`, within or across queries, have
// disjoint stage ranges; else a diagnostic naming a pair.
inline std::string check_disjoint_stages(
    std::span<const CompiledQuery* const> placed) {
  std::vector<std::pair<const BranchModules*, std::pair<int, int>>> all;
  for (const CompiledQuery* q : placed)
    for (const BranchModules& b : q->branches)
      all.push_back({&b, stage_range(b)});
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (std::string err = stage_conflict(*all[i].first, all[i].second,
                                           *all[j].first, all[j].second);
          !err.empty())
        return err;
  return {};
}

}  // namespace newton
