// Admission control for multi-tenant query churn (docs/admission.md).
//
// Before the two-phase install touches the switch, the controller checks
// the query's per-stage resource vector — ternary/init entries, module
// rules, register-range widths, qids — against the switch's remaining
// capacity and per-tenant quotas (and its window against the installed
// queries' window, which the switch runs), and rejects with a structured,
// machine-readable reason instead of failing partway and rolling back.
// Admission is PURE: it never mutates the switch, so a rejected install is
// side-effect-free by construction (the difftest churn axis asserts this
// byte-for-byte).
//
// The register check simulates the installer's exact first-fit allocation
// order on a copy of each stage's allocator, so "admit" is a guarantee:
// an admitted install cannot fail on register placement.  When the exact
// check fails but the summed free space would fit, the decision carries
// `would_fit_compacted` — the trigger for online compaction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/compose.h"

namespace newton {

class NewtonSwitch;

// Per-stage slice of a query's resource demand.
struct StageDemand {
  std::size_t k_rules = 0;
  std::size_t h_rules = 0;
  std::size_t s_rules = 0;
  std::size_t r_rules = 0;
  // Stateful register widths wanted at this stage, in the installer's
  // allocation order (branch-major, then module order) — the order matters
  // for the exact first-fit simulation.
  std::vector<std::size_t> reg_widths;

  std::size_t rules() const { return k_rules + h_rules + s_rules + r_rules; }
  std::size_t registers() const {
    std::size_t n = 0;
    for (std::size_t w : reg_widths) n += w;
    return n;
  }
};

// Resource demand of one compiled query, per stage plus switch-wide.
struct QueryDemand {
  std::map<std::size_t, StageDemand> stages;  // stage -> demand
  std::size_t init_entries = 0;
  std::size_t qids = 0;       // one per branch
  std::size_t max_stage = 0;  // highest stage index used
  std::size_t total_rules = 0;
  std::size_t total_registers = 0;
  uint64_t window_ns = 0;     // the query's window (the switch runs one)

  static QueryDemand of(const CompiledQuery& cq);
};

// Machine-readable admission outcomes.  kOk admits; everything else names
// the first exhausted resource.
enum class AdmitCode {
  kOk = 0,
  kDuplicateName,        // query name already installed
  kCompileError,         // composition/scheduling failed
  kStageOverflow,        // needs a stage beyond the pipeline
  kQidExhausted,         // no free query ids
  kInitTableFull,        // newton_init ternary table full
  kRuleTableFull,        // a module's rule table full at some stage
  kRegisterOverflow,     // a stage's state bank lacks the free registers
  kRegisterFragmented,   // free registers exist but no hole fits (compact!)
  kTenantQueryQuota,     // tenant at max concurrent queries
  kTenantRegisterQuota,  // tenant at max total registers
  kTenantRuleQuota,      // tenant at max total rules
  kWindowMismatch,       // window differs from the installed queries'
};

const char* to_string(AdmitCode code);

// One admission decision.  `stage`/`needed`/`available` pin the first
// violated constraint; `would_fit_compacted` marks rejections that online
// compaction could convert into admissions.
struct AdmitDecision {
  AdmitCode code = AdmitCode::kOk;
  std::string detail;  // human-readable amplification
  std::size_t stage = kNoStage;
  std::size_t needed = 0;
  std::size_t available = 0;
  bool would_fit_compacted = false;

  static constexpr std::size_t kNoStage = static_cast<std::size_t>(-1);

  bool admitted() const { return code == AdmitCode::kOk; }
  // Structured single-line rendering:
  //   "reject code=register_fragmented stage=3 need=4096 avail=5120
  //    compactable=1 detail=..."
  std::string to_string() const;
};

// Per-tenant admission quotas; default-constructed = unlimited.
struct TenantQuota {
  std::size_t max_queries = kUnlimited;
  std::size_t max_registers = kUnlimited;
  std::size_t max_rules = kUnlimited;

  static constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);
};

// Running per-tenant occupancy, maintained by the controller.
struct TenantUsage {
  std::size_t queries = 0;
  std::size_t registers = 0;
  std::size_t rules = 0;
};

// Check `d` against the switch's remaining capacity (tables, banks, qids).
// Pure — reads introspection only.  Tenant/duplicate checks live in the
// controller, which owns that state.
AdmitDecision admit_against_switch(const NewtonSwitch& sw,
                                   const QueryDemand& d);

// Check `d` against one tenant's quota given its current usage.
AdmitDecision admit_against_quota(const TenantQuota& quota,
                                  const TenantUsage& usage,
                                  const QueryDemand& d);

}  // namespace newton
