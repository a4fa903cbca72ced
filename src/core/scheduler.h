// Concurrent-query scheduler — the open problem §7 leaves to future work
// ("this paper does not design the solution for scheduling concurrent
// queries to optimally utilize data plane resources").
//
// Given a batch of queries with operator-assigned weights and a switch
// profile, the scheduler plans:
//   * stage sharing: disjoint-traffic queries multiplex the same stage
//     ranges (P-Newton), same-traffic queries chain (S-Newton); the overlap
//     classes of core/overlap.h are packed to minimize the pipeline height;
//   * register budgeting: if the per-stage state banks cannot hold every
//     query's requested sketch width, widths degrade gracefully —
//     proportionally to weight, in powers of two, never below a floor —
//     trading accuracy for admission instead of rejecting queries.
//
// The plan is declarative (per-query CompileOptions + adjusted widths) and
// applied through the normal Controller, so scheduling stays a pure
// control-plane concern.
#pragma once

#include <string>
#include <vector>

#include "core/admission.h"
#include "core/compose.h"
#include "core/controller.h"
#include "core/query.h"

namespace newton {

struct SwitchProfile {
  std::size_t stages = kStagesPerPipeline;
  std::size_t bank_registers = 49'152;
  std::size_t rules_per_module = 256;
  // Expected per-window packet mass through the switch (used to annotate
  // the accuracy cost of width degradation via sketch/estimator.h).
  double window_mass = 50'000;
};

struct ScheduleRequest {
  Query query;
  double weight = 1.0;  // relative importance for register budgeting
};

struct ScheduledQuery {
  Query query;              // possibly with a reduced sketch width
  CompileOptions opts;      // min_stage chosen by the scheduler
  std::size_t requested_width = 0;
  std::size_t granted_width = 0;
  // Expected mean Count-Min overcount at the granted vs requested width
  // (cm_expected_overcount with the profile's window mass): the accuracy
  // price of admission the operator is quoted.
  double expected_overcount = 0;
  double requested_overcount = 0;
};

struct SchedulePlan {
  bool feasible = false;
  std::string reason;       // human-readable; set when infeasible
  // Machine-readable counterpart of `reason`, using the admission
  // vocabulary (core/admission.h) so tooling can switch on why a batch
  // did not fit instead of parsing the string.  kOk when feasible.
  AdmitCode reject_code = AdmitCode::kOk;
  std::vector<ScheduledQuery> entries;
  std::size_t stages_used = 0;
  // Peak per-stage register demand of the plan (<= bank_registers).
  std::size_t peak_bank_demand = 0;
};

// Plan a batch of queries for one switch.  Never reorders semantics: every
// query keeps its primitives; only sketch widths and stage offsets change.
SchedulePlan schedule_queries(const std::vector<ScheduleRequest>& requests,
                              const SwitchProfile& profile,
                              std::size_t min_width_floor = 64);

// Install a feasible plan through a controller; throws on an infeasible
// plan.  Returns total modeled latency (ms).
double apply_plan(Controller& controller, const SchedulePlan& plan);

}  // namespace newton
