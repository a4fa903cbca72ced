#include "core/admission.h"

#include <sstream>

#include "core/newton_switch.h"

namespace newton {

QueryDemand QueryDemand::of(const CompiledQuery& cq) {
  QueryDemand d;
  d.init_entries = cq.num_init_entries();
  d.qids = cq.branches.size();
  d.max_stage = cq.max_stage();
  d.window_ns = cq.source.window_ns;
  for (const BranchModules& b : cq.branches) {
    for (const ModuleSpec& m : b.modules) {
      const auto st = static_cast<std::size_t>(m.stage);
      StageDemand& sd = d.stages[st];
      if (m.rule_needed) {
        switch (m.type) {
          case ModuleType::K: ++sd.k_rules; break;
          case ModuleType::H: ++sd.h_rules; break;
          case ModuleType::S: ++sd.s_rules; break;
          case ModuleType::R: ++sd.r_rules; break;
        }
        ++d.total_rules;
      }
      if (m.type == ModuleType::S && !m.s.bypass && m.alloc_width != 0) {
        sd.reg_widths.push_back(m.alloc_width);
        d.total_registers += m.alloc_width;
      }
    }
  }
  d.total_rules += d.init_entries;  // init entries are rules too
  return d;
}

const char* to_string(AdmitCode code) {
  switch (code) {
    case AdmitCode::kOk: return "ok";
    case AdmitCode::kDuplicateName: return "duplicate_name";
    case AdmitCode::kCompileError: return "compile_error";
    case AdmitCode::kStageOverflow: return "stage_overflow";
    case AdmitCode::kQidExhausted: return "qid_exhausted";
    case AdmitCode::kInitTableFull: return "init_table_full";
    case AdmitCode::kRuleTableFull: return "rule_table_full";
    case AdmitCode::kRegisterOverflow: return "register_overflow";
    case AdmitCode::kRegisterFragmented: return "register_fragmented";
    case AdmitCode::kTenantQueryQuota: return "tenant_query_quota";
    case AdmitCode::kTenantRegisterQuota: return "tenant_register_quota";
    case AdmitCode::kTenantRuleQuota: return "tenant_rule_quota";
    case AdmitCode::kWindowMismatch: return "window_mismatch";
  }
  return "unknown";
}

std::string AdmitDecision::to_string() const {
  std::ostringstream os;
  os << (admitted() ? "admit" : "reject") << " code=" << newton::to_string(code);
  if (stage != kNoStage) os << " stage=" << stage;
  if (!admitted()) {
    os << " need=" << needed << " avail=" << available
       << " compactable=" << (would_fit_compacted ? 1 : 0);
    if (!detail.empty()) os << " detail=" << detail;
  }
  return os.str();
}

namespace {

AdmitDecision reject(AdmitCode code, std::size_t stage, std::size_t needed,
                     std::size_t available, std::string detail) {
  AdmitDecision d;
  d.code = code;
  d.stage = stage;
  d.needed = needed;
  d.available = available;
  d.detail = std::move(detail);
  return d;
}

}  // namespace

AdmitDecision admit_against_switch(const NewtonSwitch& sw,
                                   const QueryDemand& d) {
  // One switch runs one window: an empty switch adopts the query's.
  if (sw.num_installs() > 0 && d.window_ns != sw.window_ns())
    return reject(AdmitCode::kWindowMismatch, AdmitDecision::kNoStage,
                  d.window_ns, sw.window_ns(),
                  "query window " + std::to_string(d.window_ns) +
                      " ns differs from the installed queries' " +
                      std::to_string(sw.window_ns()) + " ns");

  if (d.max_stage >= sw.num_stages())
    return reject(AdmitCode::kStageOverflow, d.max_stage, d.max_stage + 1,
                  sw.num_stages(),
                  "query needs stage " + std::to_string(d.max_stage) +
                      " but switch has " + std::to_string(sw.num_stages()));

  if (d.qids > sw.free_qids())
    return reject(AdmitCode::kQidExhausted, AdmitDecision::kNoStage, d.qids,
                  sw.free_qids(), "query id space exhausted");

  {
    const auto& init = sw.init_table().table();
    if (init.size() + d.init_entries > init.capacity())
      return reject(AdmitCode::kInitTableFull, AdmitDecision::kNoStage,
                    d.init_entries, init.capacity() - init.size(),
                    "newton_init dispatch table full");
  }

  const ModuleInstances& inst = sw.modules();
  for (const auto& [stage, sd] : d.stages) {
    const struct {
      const char* name;
      std::size_t need, size, cap;
    } checks[] = {
        {"K", sd.k_rules, inst.k[stage]->table().size(),
         inst.k[stage]->table().capacity()},
        {"H", sd.h_rules, inst.h[stage]->table().size(),
         inst.h[stage]->table().capacity()},
        {"S", sd.s_rules, inst.s[stage]->table().size(),
         inst.s[stage]->table().capacity()},
        {"R", sd.r_rules, inst.r[stage]->table().size(),
         inst.r[stage]->table().capacity()},
    };
    for (const auto& c : checks) {
      if (c.size + c.need > c.cap)
        return reject(AdmitCode::kRuleTableFull, stage, c.need,
                      c.cap - c.size,
                      std::string(c.name) + " rule table full at stage " +
                          std::to_string(stage));
    }

    if (sd.reg_widths.empty()) continue;
    // Exact check: replay the installer's first-fit allocations on a copy
    // of the stage allocator, in the same order install_impl walks them.
    RangeAllocator sim = sw.bank_allocator(stage);
    const std::size_t want = sd.registers();
    const std::size_t have = sim.free_total();
    bool fits = true;
    std::size_t first_failed = 0;
    for (std::size_t w : sd.reg_widths) {
      if (!sim.allocate(w)) {
        fits = false;
        first_failed = w;
        break;
      }
    }
    if (!fits) {
      // Distinguish true overflow (not enough free registers at all) from
      // fragmentation (they exist, but no hole fits): only the latter is a
      // compaction candidate.
      const bool fragmented = want <= have;
      AdmitDecision dec = reject(
          fragmented ? AdmitCode::kRegisterFragmented
                     : AdmitCode::kRegisterOverflow,
          stage, first_failed,
          fragmented ? sw.bank_allocator(stage).largest_free_block() : have,
          fragmented ? "state bank fragmented at stage " +
                           std::to_string(stage)
                     : "state bank exhausted at stage " +
                           std::to_string(stage));
      dec.would_fit_compacted = fragmented;
      return dec;
    }
  }

  return {};
}

AdmitDecision admit_against_quota(const TenantQuota& quota,
                                  const TenantUsage& usage,
                                  const QueryDemand& d) {
  if (usage.queries + 1 > quota.max_queries)
    return reject(AdmitCode::kTenantQueryQuota, AdmitDecision::kNoStage, 1,
                  quota.max_queries - usage.queries, "tenant query quota");
  if (quota.max_registers != TenantQuota::kUnlimited &&
      usage.registers + d.total_registers > quota.max_registers)
    return reject(AdmitCode::kTenantRegisterQuota, AdmitDecision::kNoStage,
                  d.total_registers, quota.max_registers - usage.registers,
                  "tenant register quota");
  if (quota.max_rules != TenantQuota::kUnlimited &&
      usage.rules + d.total_rules > quota.max_rules)
    return reject(AdmitCode::kTenantRuleQuota, AdmitDecision::kNoStage,
                  d.total_rules, quota.max_rules - usage.rules,
                  "tenant rule quota");
  return {};
}

}  // namespace newton
