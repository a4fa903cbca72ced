#include "core/scheduler.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/overlap.h"
#include "sketch/estimator.h"

namespace newton {
namespace {

struct Probe {
  CompiledQuery compiled;                 // at min_stage 0
  std::size_t span = 0;                   // stages occupied
  std::map<int, std::size_t> s_rules;     // stage -> # stateful S rules
  std::map<std::pair<int, ModuleType>, std::size_t> rules;  // per table
};

Probe probe_query(const Query& q) {
  Probe p;
  p.compiled = compile_query(q);
  p.span = p.compiled.max_stage() + 1;
  for (const auto& b : p.compiled.branches) {
    for (const ModuleSpec& m : b.modules) {
      ++p.rules[{m.stage, m.type}];
      if (m.type == ModuleType::S && !m.s.bypass && m.alloc_width > 0)
        ++p.s_rules[m.stage];
    }
  }
  return p;
}

}  // namespace

SchedulePlan schedule_queries(const std::vector<ScheduleRequest>& requests,
                              const SwitchProfile& profile,
                              std::size_t min_width_floor) {
  SchedulePlan plan;
  if (requests.empty()) {
    plan.feasible = true;
    return plan;
  }

  // 1. Probe-compile everything at stage 0.
  std::vector<Probe> probes;
  probes.reserve(requests.size());
  for (const auto& r : requests) probes.push_back(probe_query(r.query));

  // 2. Overlap classes (chained within, parallel across).
  const std::size_t n = requests.size();
  const std::vector<std::size_t> group =
      overlap_classes(n, [&](std::size_t i, std::size_t j) {
        return traffic_overlaps(probes[i].compiled, probes[j].compiled);
      });

  // 3. Chain offsets: queries of one class stack; classes run in parallel.
  std::vector<std::size_t> offset(n, 0), height(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    offset[i] = height[group[i]];
    height[group[i]] += probes[i].span;
  }
  plan.stages_used = *std::max_element(height.begin(), height.end());
  if (plan.stages_used > profile.stages) {
    plan.reject_code = AdmitCode::kStageOverflow;
    plan.reason = "pipeline height " + std::to_string(plan.stages_used) +
                  " exceeds " + std::to_string(profile.stages) +
                  " stages (consider CQE across switches)";
    return plan;
  }

  // 4. Rule capacity per physical table.
  std::map<std::pair<std::size_t, ModuleType>, std::size_t> table_rules;
  std::map<std::size_t, std::size_t> init_rules;  // stage-agnostic
  std::size_t total_init = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [key, cnt] : probes[i].rules)
      table_rules[{static_cast<std::size_t>(key.first) + offset[i],
                   key.second}] += cnt;
    total_init += probes[i].compiled.num_init_entries();
  }
  for (const auto& [key, cnt] : table_rules) {
    if (cnt > profile.rules_per_module) {
      plan.reject_code = AdmitCode::kRuleTableFull;
      plan.reason = "module table at stage " + std::to_string(key.first) +
                    " needs " + std::to_string(cnt) + " rules (capacity " +
                    std::to_string(profile.rules_per_module) + ")";
      return plan;
    }
  }
  if (total_init > profile.rules_per_module) {
    plan.reject_code = AdmitCode::kInitTableFull;
    plan.reason = "newton_init needs " + std::to_string(total_init) +
                  " entries (capacity " +
                  std::to_string(profile.rules_per_module) + ")";
    return plan;
  }

  // 5. Register budgeting: degrade widths (weighted, power-of-two, floored)
  // until the peak per-stage demand fits the bank.
  std::vector<std::size_t> width(n);
  for (std::size_t i = 0; i < n; ++i) width[i] = requests[i].query.sketch_width;

  auto peak_demand = [&]() {
    std::map<std::size_t, std::size_t> per_stage;
    for (std::size_t i = 0; i < n; ++i)
      for (const auto& [stage, cnt] : probes[i].s_rules)
        per_stage[static_cast<std::size_t>(stage) + offset[i]] +=
            cnt * width[i];
    std::size_t peak = 0;
    for (const auto& [s, d] : per_stage) peak = std::max(peak, d);
    return peak;
  };

  while (peak_demand() > profile.bank_registers) {
    // Shrink the query with the largest width-per-weight still above floor.
    std::size_t victim = n;
    double worst = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (width[i] / 2 < min_width_floor || probes[i].s_rules.empty())
        continue;
      const double cost =
          static_cast<double>(width[i]) / std::max(requests[i].weight, 1e-9);
      if (cost > worst) {
        worst = cost;
        victim = i;
      }
    }
    if (victim == n) {
      plan.reject_code = AdmitCode::kRegisterOverflow;
      plan.reason = "state banks exhausted even at the minimum width floor";
      return plan;
    }
    width[victim] /= 2;
  }
  plan.peak_bank_demand = peak_demand();

  // 6. Emit the plan, quoting the accuracy price of any degradation.
  for (std::size_t i = 0; i < n; ++i) {
    ScheduledQuery sq;
    sq.query = requests[i].query;
    sq.requested_width = requests[i].query.sketch_width;
    sq.granted_width = width[i];
    sq.query.sketch_width = width[i];
    sq.opts.min_stage = offset[i];
    const std::size_t depth = requests[i].query.sketch_depth;
    sq.requested_overcount = cm_expected_overcount(
        sq.requested_width, depth, profile.window_mass);
    sq.expected_overcount =
        cm_expected_overcount(sq.granted_width, depth, profile.window_mass);
    plan.entries.push_back(std::move(sq));
  }
  plan.feasible = true;
  return plan;
}

double apply_plan(Controller& controller, const SchedulePlan& plan) {
  if (!plan.feasible)
    throw std::invalid_argument("apply_plan: infeasible plan: " + plan.reason);
  double total_ms = 0;
  for (const ScheduledQuery& sq : plan.entries)
    total_ms += controller.install(sq.query, sq.opts).latency_ms;
  return total_ms;
}

}  // namespace newton
