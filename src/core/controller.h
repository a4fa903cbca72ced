// Device-level Newton controller (§3): compiles queries to module rules and
// drives runtime install / update / remove against one switch.  Queries
// whose traffic classes overlap an installed query are automatically
// *chained* into later stages (they share the physical metadata sets — the
// S-Newton regime of Fig. 16); disjoint-traffic queries multiplex the same
// module instances with new rules (P-Newton).
//
// Multi-tenant churn hardening (docs/admission.md): every install passes
// admission control — a pure capacity check against the switch's per-stage
// resource vectors and the owning tenant's quota — before any rule is
// touched, so rejected installs are side-effect-free by construction.
// try_install() returns the structured decision; install() throws
// AdmissionError carrying it.  When churn fragments the register banks so
// a query is rejected that *would* fit compacted, compact() migrates
// installed queries one at a time (install-new / withdraw-old under the
// quiesce guard) into lower offsets/stages.
//
// Network-wide deployment (Algorithm 2 + CQE) lives in src/net.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/newton_switch.h"
#include "core/queries.h"

namespace newton {

// Tenant id attached to queries installed without an explicit tenant.
inline const std::string kDefaultTenant = "default";

class Controller {
 public:
  explicit Controller(NewtonSwitch& sw) : sw_(sw) {}

  struct OpStats {
    double latency_ms = 0;
    std::size_t rule_ops = 0;
    // Switch-local qids assigned to the installed branches (empty for
    // remove).  Callers use these to register analyzer mappings.
    std::vector<uint16_t> qids;
  };

  // install() threw past admission: the structured decision rides along.
  class AdmissionError : public std::runtime_error {
   public:
    explicit AdmissionError(AdmitDecision d)
        : std::runtime_error("Controller: admission rejected: " +
                             d.to_string()),
          decision_(std::move(d)) {}
    const AdmitDecision& decision() const { return decision_; }

   private:
    AdmitDecision decision_;
  };

  // Outcome of try_install: the admission decision, plus the install stats
  // when admitted.
  struct InstallOutcome {
    AdmitDecision decision;
    OpStats stats;
    bool admitted() const { return decision.admitted(); }
  };

  // Compile and install; throws if the switch cannot host the query
  // (AdmissionError for capacity rejections, std::invalid_argument for a
  // duplicate name).
  OpStats install(const Query& q, CompileOptions opts = {},
                  const std::string& tenant = kDefaultTenant);

  // Admission-checked install that reports rejection as a value instead of
  // an exception.  A rejected install provably leaves the switch, the
  // controller, and all allocators byte-identical to the pre-attempt state.
  // When the rejection is fragmentation-induced (`would_fit_compacted`) and
  // auto-compaction is enabled (default), one compaction pass runs and
  // admission retries once.
  InstallOutcome try_install(const Query& q, CompileOptions opts = {},
                             const std::string& tenant = kDefaultTenant);

  // Pure admission check: compiles (with chaining) and evaluates quota +
  // switch capacity without mutating anything.  Never throws on capacity;
  // compile failures surface as kCompileError.
  AdmitDecision admit(const Query& q, CompileOptions opts = {},
                      const std::string& tenant = kDefaultTenant) const;

  // Remove a query by name.
  OpStats remove(const std::string& name);

  // Update = swap the old rules for the new compilation as one rule batch.
  // Atomic: the new query is compiled before anything is touched, and if
  // the switch rejects the new rules the old ones are reinstated — a failed
  // update never loses the running query.  Forwarding is never interrupted
  // (contrast Fig. 10).
  OpStats update(const std::string& name, const Query& new_q,
                 CompileOptions opts = {});

  bool installed(const std::string& name) const {
    return queries_.contains(name);
  }
  const CompiledQuery* compiled(const std::string& name) const;
  std::size_t num_installed() const { return queries_.size(); }

  // --- tenants ---
  void set_tenant_quota(const std::string& tenant, TenantQuota quota) {
    quotas_[tenant] = quota;
  }
  TenantUsage tenant_usage(const std::string& tenant) const;
  const std::string& tenant_of(const std::string& query) const;

  // One installed query, for operator tooling (`newton_tool queries`).
  struct QueryInfo {
    std::string name;
    std::string tenant;
    std::vector<uint16_t> qids;
    const QueryDemand* demand = nullptr;
  };
  std::vector<QueryInfo> list_queries() const;

  // --- fragmentation & compaction ---
  struct FragStats {
    std::size_t free_registers = 0;     // summed over stages
    std::size_t largest_free_block = 0; // max over stages
    // Free registers stranded behind fragmentation: sum over stages of
    // (free - largest hole).  The compactor drives this toward zero.
    std::size_t stranded_registers = 0;
  };
  FragStats fragmentation() const;

  struct CompactStats {
    std::size_t examined = 0;
    std::size_t moved = 0;
    std::size_t stranded_before = 0;
    std::size_t stranded_after = 0;
    std::size_t rule_ops = 0;
    double latency_ms = 0;
  };
  // Incremental online compaction: migrate installed queries one at a time
  // into first-fit-lower placements via install-new/withdraw-old, reusing
  // the transactional install substrate (a move that cannot mirror is
  // skipped, never half-applied).  Runs under the mutation guard like any
  // other mutation.  Each move reassigns the query's qids; the rebind hook
  // fires so the runtime can remap analyzers/report routing.
  CompactStats compact(std::size_t max_moves = static_cast<std::size_t>(-1));

  void set_auto_compact(bool on) { auto_compact_ = on; }

  // Invoked after a compaction move reassigns a query's qids (new qids in
  // install order, one per branch).  The sharded runtime uses this to
  // remap its qid->query ownership table.
  void set_rebind_hook(
      std::function<void(const std::string&, const std::vector<uint16_t>&)>
          hook) {
    rebind_hook_ = std::move(hook);
  }

  // Quiesce hook: invoked before every mutating operation (install, remove,
  // update, compact).  An execution runtime that replicates this switch's
  // pipeline (src/runtime/) installs a guard that rejects mutation while
  // packets are in flight mid-window — rule changes must instead be queued
  // and applied at a window barrier, where all replicas are quiesced and
  // re-synced.
  void set_mutation_guard(std::function<void()> guard) {
    mutation_guard_ = std::move(guard);
  }

 private:
  struct Entry {
    uint64_t handle;
    CompiledQuery cq;
    std::string tenant;
    QueryDemand demand;
    std::vector<uint16_t> qids;
  };

  // Runs the quiesce guard; counts a rejected mutation if it throws.
  void check_mutation_guard() const;

  // Lowest stage the new compilation may use given traffic overlap with
  // already-installed queries.  `skip` names an installed query to ignore —
  // update() chains against everything except the query being replaced.
  std::size_t chain_min_stage(const Query& q,
                              const std::string* skip = nullptr) const;

  // Quota + switch admission for an already-compiled query's demand (pure).
  AdmitDecision admit_compiled(const QueryDemand& d,
                               const std::string& tenant) const;

  // Shared install tail: switch install + bookkeeping + telemetry.
  OpStats commit_install(const Query& q, CompiledQuery cq, QueryDemand d,
                         const std::string& tenant);

  void record_admission(const AdmitDecision& d, const std::string& tenant);
  void account_install(const std::string& tenant, const QueryDemand& d);
  void account_remove(const std::string& tenant, const QueryDemand& d);
  void publish_fragmentation() const;

  // One compaction move; returns true if the query was migrated.
  bool compact_one(const std::string& name, CompactStats& stats);

  NewtonSwitch& sw_;
  std::map<std::string, Entry> queries_;
  std::map<std::string, TenantQuota> quotas_;
  std::map<std::string, TenantUsage> usage_;
  std::function<void()> mutation_guard_;
  std::function<void(const std::string&, const std::vector<uint16_t>&)>
      rebind_hook_;
  bool auto_compact_ = true;
};

}  // namespace newton
