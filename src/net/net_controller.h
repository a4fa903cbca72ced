// Network-wide Newton controller (§5): compiles a query, slices it for the
// per-switch stage budget (CQE), resolves register offsets centrally so all
// slice replicas address identical state, places slices with Algorithm 2,
// and installs the rules.  Also provides the sole-execution baseline
// (the full query independently on every switch) that Fig. 13 compares
// against.
//
// Installs are transactional: each switch's rule batch is retried with
// (modeled) exponential backoff when the control channel flakes, and a
// placement that cannot complete rolls back every slice already installed —
// including the centrally allocated register ranges — so a query is never
// half-placed.  When a switch dies, on_switch_failed() re-runs Algorithm 2
// on the surviving topology and issues only the delta installs/withdrawals,
// marking the deployment degraded until coverage is whole again
// (docs/fault.md).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/cqe.h"
#include "fault/install_faults.h"
#include "net/inc_place.h"
#include "net/network.h"
#include "net/placement.h"

namespace newton {

// How Algorithm 2 re-placement reacts to topology churn:
//   Incremental — per-deployment IncrementalPlacer relaxes only the
//     affected subtree (docs/fleet.md); the default.
//   Scratch — full `place_resilient` recompute on every event; the
//     recompute-everything baseline `bench_fleet` compares against, and the
//     oracle the difftest `place` axis and the fleet tests check against.
// Both modes issue byte-identical install/withdraw deltas (proven by the
// difftest `place` axis).
enum class PlacementMode : uint8_t { Incremental, Scratch };

// Retry-with-exponential-backoff policy for one switch's rule batch.  The
// backoff is modeled (added to the deployment's control latency), not slept.
// docs/admission.md draws the full retry/backoff state machine.
struct RetryPolicy {
  std::size_t max_attempts = 4;  // first try + 3 retries, per switch
  double base_backoff_ms = 2.0;  // doubles per retry...
  double max_backoff_ms = 64.0;  // ...up to this cap
  // Deterministic jitter: each backoff is scaled by a factor drawn from
  // [1 - jitter_frac, 1 + jitter_frac], keyed on (switch, attempt, uid) —
  // synchronized retry herds de-correlate while runs stay byte-reproducible.
  double jitter_frac = 0.5;
  // Modeled cost of one timed-out attempt (how long the controller waits
  // before declaring the batch lost), charged per failed attempt on top of
  // the backoff.
  double attempt_timeout_ms = 20.0;
  // Whole-deployment retry budget: once one deploy has burned this many
  // retries across all its switches, the next failure is terminal
  // (FAILED_PERMANENT) even if that switch has per-attempt headroom — a
  // flapping switch can bound-delay an install but never wedge the
  // controller in a retry loop.
  std::size_t retry_budget = 24;
};

// Terminal outcome of an install whose retries were exhausted: the whole
// placement was rolled back (zero residue) and the controller moved on.
struct InstallFailure {
  std::string query;
  int sw_node = -1;             // the switch whose batch kept failing
  std::size_t attempts = 0;     // attempts burned on that switch
  std::size_t retries_charged = 0;  // deployment-wide retries burned
  std::string reason;
};

class PermanentInstallError : public std::runtime_error {
 public:
  explicit PermanentInstallError(InstallFailure f)
      : std::runtime_error("FAILED_PERMANENT: install of '" + f.query +
                           "' on switch " + std::to_string(f.sw_node) +
                           " after " + std::to_string(f.attempts) +
                           " attempts: " + f.reason),
        failure_(std::move(f)) {}
  const InstallFailure& failure() const { return failure_; }

 private:
  InstallFailure failure_;
};

class NetworkController {
 public:
  explicit NetworkController(Network& net, Analyzer* analyzer = nullptr)
      : net_(net), analyzer_(analyzer) {
    for (std::size_t i = 0; i < net.stages_per_switch(); ++i)
      central_alloc_.emplace_back(kStateBankRegisters);
  }

  NetworkController(Network& net, Analyzer* analyzer,
                    std::size_t bank_registers)
      : net_(net), analyzer_(analyzer) {
    for (std::size_t i = 0; i < net.stages_per_switch(); ++i)
      central_alloc_.emplace_back(bank_registers);
  }

  struct Deployment {
    std::string query;
    uint16_t uid = 0;
    std::vector<QuerySlice> slices;
    Placement placement;
    std::vector<int> ingress_edges;  // seeds for re-placement on failover
    double total_latency_ms = 0;
    std::size_t total_rule_ops = 0;
    std::map<int, std::vector<uint64_t>> handles;  // switch -> install handles
    // Resilient deployments: (switch, slice) -> handle, so failover can
    // withdraw individual slices.  Empty for sole/path deployments.
    std::map<int, std::map<std::size_t, uint64_t>> by_slice;
    // Centrally allocated (stage, offset) register ranges — freed on
    // withdraw or rollback.
    std::vector<std::pair<std::size_t, std::size_t>> central_allocs;
    // Handles stranded on dead switches; cleaned up if the switch returns.
    std::map<int, std::vector<uint64_t>> orphaned;
    // True while coverage is partial (some switch down, or stale rules
    // stranded): reports may under-count until recovery completes.
    bool degraded = false;
    // False for deploy_path/deploy_sole — those are not re-placed on
    // failure (the control arm must stay naive).
    bool resilient = true;
    // Retries burned installing this deployment, against the policy's
    // whole-deployment retry_budget.
    std::size_t retries_used = 0;
    // (switch, slice) pairs the current placement wants installed but whose
    // delta install keeps failing — retried on every later reconciliation
    // until healed or no longer placed.
    std::set<std::pair<int, std::size_t>> install_holes;
    // (switch, slice) pairs still installed although the current placement
    // no longer requires them: link churn shrinks reachability, but
    // withdrawing a live replica would destroy its accumulated sketch
    // state mid-window, so link events are grow-only and the stale replica
    // is only swept at the next switch-death/restore reconciliation
    // (matching what the scratch path has always done).
    std::set<std::pair<int, std::size_t>> stale_extras;
    std::optional<CompiledQuery> whole;  // deploy_sole: the query it runs
    // Sliced deployments: how many other deployed slice 0s share traffic
    // with this one's (traffic_overlaps, core/overlap.h).
    std::size_t ingress_partners = 0;
  };

  // Running totals of the fault machinery (mirrored into telemetry).
  struct FaultStats {
    uint64_t install_retries = 0;   // per-switch batch retries after a flake
    uint64_t rollbacks = 0;         // whole-placement aborts
    uint64_t failovers = 0;         // switch-death reconciliations
    uint64_t delta_installs = 0;    // slices added by a reconcile
    uint64_t delta_withdrawals = 0; // slices removed by a reconcile
    uint64_t failed_permanent = 0;  // installs that hit FAILED_PERMANENT
    // Re-placement accounting, per (churn event, resilient deployment):
    // `scope` counts switches the placer re-evaluated (incremental: the
    // relaxed subtree; scratch: every live switch), `changed` counts
    // switches whose assignment actually moved (incremental mode only —
    // the scratch baseline does not diff, it reinstalls the world).
    uint64_t replace_events = 0;
    uint64_t replace_scope_switches = 0;
    uint64_t replace_changed_switches = 0;
    uint64_t last_replace_scope = 0;
    uint64_t last_replace_changed = 0;
  };

  // Resilient CQE deployment across all possible paths from the monitored
  // traffic's ingress edge switches (defaults to every edge switch).
  const Deployment& deploy(const Query& q, CompileOptions opts = {},
                           std::vector<int> ingress_edges = {});

  // Naive shortest-path-only deployment: slice i on the i-th switch of
  // `sw_path` only.  The control baseline of the fault-injection tests — a
  // reroute off the path loses the downstream slices.
  const Deployment& deploy_path(const Query& q, const std::vector<int>& sw_path,
                                CompileOptions opts = {});

  // Sole-execution baseline: every switch runs the full query, chained past
  // the sole deployments it shares traffic with (throws if it then no longer
  // fits the switch's stages).
  const Deployment& deploy_sole(const Query& q, CompileOptions opts = {});

  void withdraw(const std::string& name);

  // Failure notifications (the FaultInjector calls these after flipping the
  // topology state).  on_switch_failed orphans the dead switch's rules and
  // re-places every resilient deployment on the surviving topology;
  // on_switch_restored clears stale rules from the returning switch and
  // re-places to restore full coverage.
  void on_switch_failed(int sw_node);
  void on_switch_restored(int sw_node);

  // Link churn notifications (again from the FaultInjector, after the
  // topology flip).  Re-placement under link churn is GROW-ONLY: missing
  // replicas on newly reachable switches are installed (coverage healing),
  // but replicas the shrunken reachability no longer requires stay put —
  // withdrawing them would destroy live sketch state; they are tracked in
  // Deployment::stale_extras and swept at the next switch event.
  void on_link_failed(int a, int b);
  void on_link_restored(int a, int b);

  // Must be chosen before the first deploy (a mode flip does not retrofit
  // existing deployments).  Defaults to Incremental.
  void set_placement_mode(PlacementMode m) { mode_ = m; }
  PlacementMode placement_mode() const { return mode_; }
  // Equivalence oracle: after every incremental re-placement, cross-check
  // the placer's masks against a scratch `place_resilient` and throw
  // std::logic_error on any divergence.  Used by tests, the difftest
  // `place` axis, and `bench_fleet --verify`.
  void set_verify_placement(bool on) { verify_placement_ = on; }

  // Fault model consulted before every per-switch install attempt (null =
  // no injected install faults).  Not owned.
  void set_install_faults(InstallFaultModel* m) { install_faults_ = m; }
  void set_retry_policy(RetryPolicy p) { retry_ = p; }

  const Deployment* deployment(const std::string& name) const;
  const std::vector<QuerySlice>* slices_of(const std::string& name) const;
  const FaultStats& fault_stats() const { return fault_stats_; }
  // The most recent FAILED_PERMANENT install, for operator tooling; empty
  // until one happens.
  const std::optional<InstallFailure>& last_install_failure() const {
    return last_failure_;
  }
  // Any deployment currently running with partial coverage?
  bool any_degraded() const;
  // Deployed sliced queries whose slice 0 shares traffic with another
  // deployed slice 0 (gauge newton_fleet_ingress_shared_queries).  Such
  // slice 0s share an ingress switch's metadata sets at the same stages
  // (docs/fleet.md).
  std::size_t ingress_shared_queries() const { return ingress_shared_; }

 private:
  NewtonSwitch::InstallResult install_with_retry(int sw_node,
                                                 const QuerySlice& slice,
                                                 Deployment& d);
  void install_one_slice(Deployment& d, int sw_node, std::size_t si);
  void remove_slice_handle(Deployment& d, int sw_node, std::size_t si);
  void rollback(Deployment& d);
  // Apply a fresh placement's delta on `targets`, visited in ascending
  // order: withdraw (or, on link events, mark stale) slices it drops,
  // install the ones it adds, heal install holes, and publish it (grow-only
  // on link events).  `fresh_at(s)` is the fresh slice list of switch s,
  // ascending.
  void reconcile(Deployment& d, const std::set<int>& targets,
                 const std::function<std::vector<std::size_t>(int)>& fresh_at,
                 bool allow_withdraw);
  void handle_link_event(int a, int b);
  void replace_for_event(Deployment& d, bool allow_withdraw,
                         bool switch_event, int a, int b);
  void verify_placer(const Deployment& d, const IncrementalPlacer& p) const;
  void note_replacement(std::size_t scope, std::size_t changed);
  void refresh_degraded(Deployment& d);
  // Record the centrally resolved register ranges of `slices` in
  // d.central_allocs, which withdraw and rollback free.
  static void record_central(Deployment& d,
                             const std::vector<QuerySlice>& slices);
  void free_central(Deployment& d);
  // A deployed `d` joins (delta +1) or leaves (-1) the sliced deployments:
  // update the ingress partner counts and the shared-ingress gauge.
  void pair_ingress(Deployment& d, int delta);

  Network& net_;
  Analyzer* analyzer_;
  InstallFaultModel* install_faults_ = nullptr;
  RetryPolicy retry_;
  std::vector<RangeAllocator> central_alloc_;
  std::map<std::string, Deployment> deployments_;
  // Per-resilient-deployment incremental placer state (Incremental mode
  // only; queries slicing past IncrementalPlacer::kMaxSlices fall back to
  // scratch and have no entry here).
  std::map<std::string, IncrementalPlacer> placers_;
  PlacementMode mode_ = PlacementMode::Incremental;
  bool verify_placement_ = false;
  FaultStats fault_stats_;
  std::optional<InstallFailure> last_failure_;
  std::size_t ingress_shared_ = 0;
  uint16_t next_uid_ = 1;
};

}  // namespace newton
