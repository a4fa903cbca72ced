// Module layouts (§4.2): how Newton module instances are placed into the
// physical pipeline at initialization time (the only non-runtime step).
//
// * Compact layout: every stage hosts one instance of each module type
//   (K, H, S, R).  Combined with the two metadata sets, this lets the
//   composer pack up to four modules of a query into one stage and balances
//   the skewed per-module resource demands across each stage's resources.
// * Naive layout: one module instance per stage (the paper's baseline) —
//   used for the resource-utilization comparisons; 4x fewer module slots
//   for the same stage count.
#pragma once

#include <vector>

#include "core/modules.h"
#include "dataplane/pipeline.h"

namespace newton {

struct ModuleInstances {
  std::vector<KModule*> k;     // one per stage (nullptr if absent)
  std::vector<HModule*> h;
  std::vector<SModule*> s;
  std::vector<RModule*> r;
};

// Build the compact layout into `pipe` (which must be empty): one K/H/S/R
// per stage.  Reports from R go to `sink` tagged with `switch_id`.
ModuleInstances build_compact_layout(Pipeline& pipe, ReportSink* sink,
                                     uint32_t switch_id,
                                     std::size_t bank_registers =
                                         kStateBankRegisters);

// Resource usage of one stage under each layout (Table 3's per-stage rows).
ResourceVec compact_stage_usage();
ResourceVec naive_stage_usage();  // average module footprint (1 module/stage)

}  // namespace newton
