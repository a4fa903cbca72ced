#include "net/net_controller.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/overlap.h"
#include "telemetry/telemetry.h"

namespace newton {

namespace {

struct FaultCounters {
  telemetry::Counter& retries;
  telemetry::Counter& rollbacks;
  telemetry::Counter& failovers;
  telemetry::Counter& delta_installs;
  telemetry::Counter& delta_withdrawals;
  telemetry::Counter& failed_permanent;
  telemetry::Counter& replace_events;
  telemetry::Counter& replace_scope;
  telemetry::Counter& replace_changed;
  telemetry::Gauge& degraded;

  static FaultCounters& get() {
    auto& reg = telemetry::Registry::global();
    static FaultCounters c{
        reg.counter("newton_net_install_retries_total",
                    "Per-switch rule-batch retries after a transient "
                    "control-channel failure"),
        reg.counter("newton_net_install_rollbacks_total",
                    "Whole-placement installs aborted and rolled back"),
        reg.counter("newton_net_failovers_total",
                    "Switch-death reconciliations (re-placement on the "
                    "surviving topology)"),
        reg.counter("newton_net_delta_installs_total",
                    "Slices installed by failover reconciliation"),
        reg.counter("newton_net_delta_withdrawals_total",
                    "Slices withdrawn by failover reconciliation"),
        reg.counter("newton_net_installs_failed_permanent_total",
                    "Installs that exhausted their retry budget and were "
                    "terminally rolled back (FAILED_PERMANENT)"),
        reg.counter("newton_place_events_total",
                    "Re-placement episodes (one per churn event per "
                    "resilient deployment)"),
        reg.counter("newton_place_scope_switches_total",
                    "Switches re-evaluated by re-placement (incremental: "
                    "the relaxed subtree; scratch: every live switch)"),
        reg.counter("newton_place_changed_switches_total",
                    "Switches whose slice assignment actually moved "
                    "(incremental mode)"),
        reg.gauge("newton_net_degraded_deployments",
                  "Deployments currently running with partial coverage")};
    return c;
  }
};

}  // namespace

bool NetworkController::any_degraded() const {
  return std::any_of(deployments_.begin(), deployments_.end(),
                     [](const auto& kv) { return kv.second.degraded; });
}

namespace {

// Deterministic backoff jitter in [1 - frac, 1 + frac], keyed on the
// (switch, attempt, deployment) triple: retry herds de-correlate, but a
// replayed run charges byte-identical modeled latencies.
double jitter_factor(int sw_node, std::size_t attempt, uint16_t uid,
                     double frac) {
  uint64_t h = 1469598103934665603ull;
  for (const uint64_t w : {static_cast<uint64_t>(sw_node),
                           static_cast<uint64_t>(attempt),
                           static_cast<uint64_t>(uid)}) {
    h ^= w;
    h *= 1099511628211ull;
  }
  const double unit = static_cast<double>(h % 10'000) / 9'999.0;  // [0, 1]
  return 1.0 - frac + 2.0 * frac * unit;
}

}  // namespace

NewtonSwitch::InstallResult NetworkController::install_with_retry(
    int sw_node, const QuerySlice& slice, Deployment& d) {
  // Bounded-retry state machine (docs/admission.md): TRYING -> (flake) ->
  // BACKOFF -> TRYING ... until success, per-switch attempts exhausted, or
  // the deployment-wide retry budget runs dry — then FAILED_PERMANENT: the
  // caller rolls the whole placement back and the controller moves on.
  double backoff = retry_.base_backoff_ms;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      if (install_faults_ && install_faults_->should_fail(sw_node))
        throw std::runtime_error("install: switch " + std::to_string(sw_node) +
                                 " rejected the rule batch");
      return net_.sw(sw_node).install_slice(slice, d.uid, /*resolve=*/false);
    } catch (const std::exception& e) {
      // Every failed attempt costs the modeled per-attempt timeout (the
      // wait before declaring the batch lost).
      d.total_latency_ms += retry_.attempt_timeout_ms;
      if (attempt >= retry_.max_attempts ||
          d.retries_used >= retry_.retry_budget) {
        ++fault_stats_.failed_permanent;
        FaultCounters::get().failed_permanent.add();
        last_failure_ = {d.query, sw_node, attempt, d.retries_used, e.what()};
        throw PermanentInstallError(*last_failure_);
      }
      ++fault_stats_.install_retries;
      ++d.retries_used;
      FaultCounters::get().retries.add();
      // Modeled jittered exponential backoff: charged to the deployment's
      // control latency rather than slept, keeping tests instant.
      d.total_latency_ms +=
          std::min(backoff, retry_.max_backoff_ms) *
          jitter_factor(sw_node, attempt, d.uid, retry_.jitter_frac);
      backoff *= 2;
    }
  }
}

void NetworkController::install_one_slice(Deployment& d, int sw_node,
                                          std::size_t si) {
  const auto res = install_with_retry(sw_node, d.slices[si], d);
  d.handles[sw_node].push_back(res.handle);
  d.by_slice[sw_node][si] = res.handle;
  d.total_latency_ms = std::max(d.total_latency_ms, res.latency_ms);
  d.total_rule_ops += res.rule_ops;
  if (analyzer_)
    for (uint16_t qid : res.qids)
      analyzer_->register_qid(static_cast<uint32_t>(sw_node), qid, d.query, 0);
}

void NetworkController::remove_slice_handle(Deployment& d, int sw_node,
                                            std::size_t si) {
  auto sw_it = d.by_slice.find(sw_node);
  if (sw_it == d.by_slice.end()) return;
  const auto h_it = sw_it->second.find(si);
  if (h_it == sw_it->second.end()) return;
  const uint64_t h = h_it->second;
  net_.sw(sw_node).remove(h);
  sw_it->second.erase(h_it);
  if (sw_it->second.empty()) d.by_slice.erase(sw_it);
  auto& hv = d.handles[sw_node];
  hv.erase(std::remove(hv.begin(), hv.end(), h), hv.end());
  if (hv.empty()) d.handles.erase(sw_node);
}

void NetworkController::record_central(
    Deployment& d, const std::vector<QuerySlice>& slices) {
  for (const QuerySlice& sl : slices)
    for (const auto& b : sl.part.branches)
      for (const ModuleSpec& m : b.modules)
        if (m.type == ModuleType::S && !m.s.bypass && m.alloc_width > 0)
          d.central_allocs.push_back(
              {static_cast<std::size_t>(m.stage), m.alloc_offset});
}

void NetworkController::free_central(Deployment& d) {
  for (const auto& [stage, offset] : d.central_allocs)
    central_alloc_.at(stage).free(offset);
  d.central_allocs.clear();
}

void NetworkController::pair_ingress(Deployment& d, int delta) {
  static telemetry::Gauge& shared = telemetry::Registry::global().gauge(
      "newton_fleet_ingress_shared_queries",
      "Deployed sliced queries whose slice 0 shares traffic (and so an "
      "ingress switch's metadata sets) with another deployed slice 0");
  if (d.slices.empty()) return;
  for (auto& [name, other] : deployments_) {
    if (&other == &d || other.slices.empty() ||
        !traffic_overlaps(d.slices[0].part, other.slices[0].part))
      continue;
    other.ingress_partners += delta;
    d.ingress_partners += delta;
  }
  // A leaving `d` ends with no partners, so it no longer counts.
  ingress_shared_ = static_cast<std::size_t>(std::count_if(
      deployments_.begin(), deployments_.end(),
      [](const auto& kv) { return kv.second.ingress_partners > 0; }));
  shared.set(static_cast<int64_t>(ingress_shared_));
}

void NetworkController::rollback(Deployment& d) {
  // Abort phase of the two-phase install: withdraw every slice already
  // installed and release the central register ranges, leaving no trace.
  for (const auto& [sw_node, handles] : d.handles)
    for (uint64_t h : handles) net_.sw(sw_node).remove(h);
  d.handles.clear();
  d.by_slice.clear();
  free_central(d);
  ++fault_stats_.rollbacks;
  FaultCounters::get().rollbacks.add();
}

const NetworkController::Deployment& NetworkController::deploy(
    const Query& q, CompileOptions opts, std::vector<int> ingress_edges) {
  if (deployments_.contains(q.name))
    throw std::invalid_argument("deploy: already deployed: " + q.name);

  CompiledQuery cq = compile_query(q, opts);
  std::vector<QuerySlice> slices =
      slice_query(cq, net_.stages_per_switch());
  resolve_slice_offsets(slices, central_alloc_);

  if (ingress_edges.empty()) ingress_edges = net_.topo().edge_switches();
  std::optional<IncrementalPlacer> placer;
  Placement placement;
  if (mode_ == PlacementMode::Incremental &&
      slices.size() <= IncrementalPlacer::kMaxSlices) {
    placer.emplace(&net_.topo(), ingress_edges, slices.size());
    placement = placer->placement();
    if (verify_placement_ &&
        placement.assignment !=
            place_resilient(net_.topo(), ingress_edges, slices.size())
                .assignment)
      throw std::logic_error(
          "incremental placement diverged from the scratch oracle at "
          "deploy of '" +
          q.name + "'");
  } else {
    placement = place_resilient(net_.topo(), ingress_edges, slices.size());
  }

  Deployment d;
  d.query = q.name;
  d.uid = next_uid_++;
  d.slices = std::move(slices);
  d.placement = placement;
  d.ingress_edges = std::move(ingress_edges);
  record_central(d, d.slices);

  // Phase 1 (prepare): install every slice, retrying transient flakes.  Any
  // permanent failure aborts the whole placement.
  try {
    for (const auto& [sw_node, slice_idxs] : placement.assignment) {
      if (!net_.has_switch(sw_node) || !net_.topo().node_up(sw_node)) continue;
      for (std::size_t si : slice_idxs) install_one_slice(d, sw_node, si);
    }
  } catch (...) {
    rollback(d);
    throw;
  }
  // Phase 2 (commit): the placement is complete; publish it (and the
  // placer state that tracks it incrementally from here on).
  if (placer) placers_.insert_or_assign(q.name, std::move(*placer));
  Deployment& placed = deployments_[q.name] = std::move(d);
  pair_ingress(placed, +1);
  return placed;
}

const NetworkController::Deployment& NetworkController::deploy_path(
    const Query& q, const std::vector<int>& sw_path, CompileOptions opts) {
  if (deployments_.contains(q.name))
    throw std::invalid_argument("deploy_path: already deployed: " + q.name);

  CompiledQuery cq = compile_query(q, opts);
  std::vector<QuerySlice> slices =
      slice_query(cq, net_.stages_per_switch());
  resolve_slice_offsets(slices, central_alloc_);

  Deployment d;
  d.query = q.name;
  d.uid = next_uid_++;
  d.slices = std::move(slices);
  d.resilient = false;
  record_central(d, d.slices);

  try {
    d.placement = place_on_path(sw_path, d.slices.size());
    for (const auto& [sw_node, slice_idxs] : d.placement.assignment)
      for (std::size_t si : slice_idxs) install_one_slice(d, sw_node, si);
  } catch (...) {
    rollback(d);
    throw;
  }
  Deployment& placed = deployments_[q.name] = std::move(d);
  pair_ingress(placed, +1);
  return placed;
}

const NetworkController::Deployment& NetworkController::deploy_sole(
    const Query& q, CompileOptions opts) {
  if (deployments_.contains(q.name))
    throw std::invalid_argument("deploy_sole: already deployed: " + q.name);
  // Every switch runs the whole query at the same offsets, resolved against
  // the central allocator as deploy and deploy_path resolve theirs, so a
  // later deployment never picks a range this one holds.
  std::vector<const CompiledQuery*> placed;
  for (const auto& [name, other] : deployments_)
    if (other.whole) placed.push_back(&*other.whole);
  const std::size_t floor = chain_floor(q, opts, placed);
  opts.min_stage = std::max(opts.min_stage, floor);
  std::vector<QuerySlice> whole(1);
  whole[0].part = compile_query(q, opts);
  const CompiledQuery& cq = whole[0].part;
  if (cq.max_stage() >= net_.stages_per_switch())
    throw std::runtime_error(
        std::string("deploy_sole: ")
            .append(q.name)
            .append(" needs stages ")
            .append(std::to_string(cq.min_used_stage()))
            .append("-")
            .append(std::to_string(cq.max_stage()))
            .append(" (chain floor ")
            .append(std::to_string(floor))
            .append(") but switches have ")
            .append(std::to_string(net_.stages_per_switch()))
            .append(" stages"));
  resolve_slice_offsets(whole, central_alloc_);

  Deployment d;
  d.query = q.name;
  d.uid = next_uid_++;
  d.resilient = false;
  record_central(d, whole);
  try {
    for (int sw_node : net_.topo().switches()) {
      if (!net_.topo().node_up(sw_node)) continue;
      if (install_faults_ && install_faults_->should_fail(sw_node))
        throw std::runtime_error("install: switch " +
                                 std::to_string(sw_node) +
                                 " rejected the rule batch");
      const auto res =
          net_.sw(sw_node).install(cq, /*resolve_offsets=*/false);
      d.handles[sw_node].push_back(res.handle);
      d.total_latency_ms = std::max(d.total_latency_ms, res.latency_ms);
      d.total_rule_ops += res.rule_ops;
      if (analyzer_)
        for (std::size_t bi = 0; bi < res.qids.size(); ++bi)
          analyzer_->register_qid(static_cast<uint32_t>(sw_node),
                                  res.qids[bi], q.name, bi);
    }
  } catch (...) {
    rollback(d);
    throw;
  }
  d.whole = std::move(whole[0].part);
  return deployments_[q.name] = std::move(d);
}

void NetworkController::withdraw(const std::string& name) {
  auto it = deployments_.find(name);
  if (it == deployments_.end())
    throw std::invalid_argument("withdraw: unknown deployment: " + name);
  for (const auto& [sw_node, handles] : it->second.handles)
    for (uint64_t h : handles) net_.sw(sw_node).remove(h);
  // Stranded rules on dead switches are cleaned too: withdrawing a query is
  // a management operation, and the stale handles must not fire if the
  // switch later returns.
  for (const auto& [sw_node, handles] : it->second.orphaned)
    for (uint64_t h : handles) net_.sw(sw_node).remove(h);
  free_central(it->second);
  pair_ingress(it->second, -1);
  placers_.erase(name);
  deployments_.erase(it);
  FaultCounters::get().degraded.set(static_cast<int64_t>(std::count_if(
      deployments_.begin(), deployments_.end(),
      [](const auto& kv) { return kv.second.degraded; })));
}

void NetworkController::refresh_degraded(Deployment& d) {
  // Coverage is partial while any switch is down, stale rules are stranded,
  // or (for resilient deployments) some live placed slice has no handle —
  // e.g. a delta install that keeps failing.
  bool missing = false;
  if (d.resilient) {
    for (const auto& [sw_node, slice_idxs] : d.placement.assignment) {
      if (!net_.has_switch(sw_node) || !net_.topo().node_up(sw_node)) continue;
      for (std::size_t si : slice_idxs) {
        const auto it = d.by_slice.find(sw_node);
        if (it == d.by_slice.end() || !it->second.contains(si)) missing = true;
      }
    }
  }
  d.degraded =
      !d.orphaned.empty() || !net_.topo().failed_nodes.empty() || missing;
  FaultCounters::get().degraded.set(static_cast<int64_t>(std::count_if(
      deployments_.begin(), deployments_.end(),
      [](const auto& kv) { return kv.second.degraded; })));
}

void NetworkController::reconcile(
    Deployment& d, const std::set<int>& targets,
    const std::function<std::vector<std::size_t>(int)>& fresh_at,
    bool allow_withdraw) {
  // Diff the fresh placement against what is installed, switch by switch:
  // only the delta touches switches.  Each reconciliation episode gets a
  // fresh retry budget: a deployment that went FAILED_PERMANENT during a
  // churn storm must still be able to heal once the fabric calms down.
  d.retries_used = 0;
  // Pass 1, delta withdrawals: slices no longer needed on a live switch.
  // Link events (allow_withdraw == false) only RECORD the staleness: the
  // replica's sketch state must survive a transient link flap, and the
  // next switch event sweeps whatever is still unplaced then.
  for (int sw_node : targets) {
    if (!net_.has_switch(sw_node) || !net_.topo().node_up(sw_node)) continue;
    const auto it = d.placement.assignment.find(sw_node);
    if (it == d.placement.assignment.end()) continue;
    const std::vector<std::size_t> fresh = fresh_at(sw_node);
    for (std::size_t si : it->second) {
      if (std::binary_search(fresh.begin(), fresh.end(), si)) {
        d.stale_extras.erase({sw_node, si});
        continue;
      }
      if (!allow_withdraw) {
        d.stale_extras.insert({sw_node, si});
        continue;
      }
      remove_slice_handle(d, sw_node, si);
      d.stale_extras.erase({sw_node, si});
      d.install_holes.erase({sw_node, si});
      ++fault_stats_.delta_withdrawals;
      FaultCounters::get().delta_withdrawals.add();
    }
  }
  // Pass 2, delta installs: slices the fresh placement adds (this also
  // retries any hole a previous reconciliation's failed install left).
  for (int sw_node : targets) {
    if (!net_.has_switch(sw_node)) continue;
    for (std::size_t si : fresh_at(sw_node)) {
      const auto it = d.by_slice.find(sw_node);
      if (it != d.by_slice.end() && it->second.contains(si)) {
        d.install_holes.erase({sw_node, si});
        continue;
      }
      try {
        install_one_slice(d, sw_node, si);
        d.install_holes.erase({sw_node, si});
        ++fault_stats_.delta_installs;
        FaultCounters::get().delta_installs.add();
      } catch (const std::exception&) {
        // Leave the hole: the deployment stays degraded, a later
        // reconciliation retries.
        d.install_holes.insert({sw_node, si});
      }
    }
  }
  // Pass 3, publish.  Link events publish grow-only: the placement keeps the
  // stale extras (they are still installed) and gains what the fresh one
  // added.
  for (int sw_node : targets) {
    std::vector<std::size_t> fresh = fresh_at(sw_node);
    if (allow_withdraw) {
      if (fresh.empty())
        d.placement.assignment.erase(sw_node);
      else
        d.placement.assignment[sw_node] = std::move(fresh);
    } else if (!fresh.empty()) {
      auto& slot = d.placement.assignment[sw_node];
      for (std::size_t si : fresh)
        if (std::find(slot.begin(), slot.end(), si) == slot.end())
          slot.push_back(si);
      std::sort(slot.begin(), slot.end());
    }
  }
}

void NetworkController::verify_placer(const Deployment& d,
                                      const IncrementalPlacer& p) const {
  const Placement scratch =
      place_resilient(net_.topo(), p.ingress(), p.num_slices());
  if (p.placement().assignment != scratch.assignment)
    throw std::logic_error(
        "incremental placement diverged from the scratch oracle for '" +
        d.query + "'");
}

void NetworkController::note_replacement(std::size_t scope,
                                         std::size_t changed) {
  ++fault_stats_.replace_events;
  fault_stats_.replace_scope_switches += scope;
  fault_stats_.replace_changed_switches += changed;
  fault_stats_.last_replace_scope = scope;
  fault_stats_.last_replace_changed = changed;
  auto& c = FaultCounters::get();
  c.replace_events.add();
  c.replace_scope.add(scope);
  c.replace_changed.add(changed);
}

void NetworkController::replace_for_event(Deployment& d, bool allow_withdraw,
                                          bool switch_event, int a, int b) {
  // Both modes reconcile through the same delta routine; they differ only
  // in where the fresh slices come from and which switches are examined.
  // Either way a switch carrying an unhealed install hole or (at switch
  // events) a stale extra is examined.
  std::set<int> targets;
  for (const auto& [sw_node, si] : d.install_holes) targets.insert(sw_node);
  if (allow_withdraw)
    for (const auto& [sw_node, si] : d.stale_extras) targets.insert(sw_node);

  const auto it = placers_.find(d.query);
  if (mode_ == PlacementMode::Incremental && it != placers_.end()) {
    IncrementalPlacer& p = it->second;
    if (switch_event)
      p.on_switch_event(a);
    else
      p.on_link_event(a, b);
    if (verify_placement_) verify_placer(d, p);
    note_replacement(p.last_scope(), p.last_changed());
    // Only the switches the relaxation moved: an unchanged mask means the
    // fresh placement equals the published one there.
    targets.insert(p.last_changed_switches().begin(),
                   p.last_changed_switches().end());
    reconcile(
        d, targets, [&p](int s) { return p.slices_at(s); }, allow_withdraw);
    return;
  }
  // Scratch baseline: Algorithm 2 from scratch on the surviving topology;
  // the whole live fabric is the re-placement scope, and every switch
  // either placement names is examined.
  std::size_t live = 0;
  for (int s : net_.topo().switches())
    if (net_.topo().node_up(s)) ++live;
  note_replacement(live, 0);
  std::vector<int> ingress;
  for (int e : d.ingress_edges)
    if (net_.topo().node_up(e)) ingress.push_back(e);
  const Placement fresh =
      place_resilient(net_.topo(), ingress, d.slices.size());
  for (const auto& [sw_node, slices] : d.placement.assignment)
    targets.insert(sw_node);
  for (const auto& [sw_node, slices] : fresh.assignment)
    targets.insert(sw_node);
  reconcile(
      d, targets,
      [&fresh](int s) {
        const auto f = fresh.assignment.find(s);
        return f == fresh.assignment.end() ? std::vector<std::size_t>{}
                                           : f->second;
      },
      allow_withdraw);
}

void NetworkController::on_switch_failed(int sw_node) {
  for (auto& [name, d] : deployments_) {
    // The dead switch's rules are unreachable: orphan the handles so a
    // recovery can clean them up, and forget its placement entries.
    if (const auto it = d.handles.find(sw_node); it != d.handles.end()) {
      auto& orph = d.orphaned[sw_node];
      orph.insert(orph.end(), it->second.begin(), it->second.end());
      d.handles.erase(it);
    }
    d.by_slice.erase(sw_node);
    d.placement.assignment.erase(sw_node);
    std::erase_if(d.install_holes,
                  [&](const auto& e) { return e.first == sw_node; });
    std::erase_if(d.stale_extras,
                  [&](const auto& e) { return e.first == sw_node; });
    if (d.resilient)
      replace_for_event(d, /*allow_withdraw=*/true, /*switch_event=*/true,
                        sw_node, -1);
    refresh_degraded(d);
  }
  ++fault_stats_.failovers;
  FaultCounters::get().failovers.add();
}

void NetworkController::on_switch_restored(int sw_node) {
  for (auto& [name, d] : deployments_) {
    // A returning switch boots with its old (stale) rules: clear them
    // before the reconciliation decides what it should actually hold.
    if (const auto it = d.orphaned.find(sw_node); it != d.orphaned.end()) {
      for (uint64_t h : it->second) net_.sw(sw_node).remove(h);
      d.orphaned.erase(it);
    }
    if (d.resilient)
      replace_for_event(d, /*allow_withdraw=*/true, /*switch_event=*/true,
                        sw_node, -1);
    refresh_degraded(d);
  }
}

void NetworkController::handle_link_event(int a, int b) {
  for (auto& [name, d] : deployments_) {
    if (!d.resilient) continue;
    replace_for_event(d, /*allow_withdraw=*/false, /*switch_event=*/false, a,
                      b);
    refresh_degraded(d);
  }
}

void NetworkController::on_link_failed(int a, int b) {
  handle_link_event(a, b);
}

void NetworkController::on_link_restored(int a, int b) {
  handle_link_event(a, b);
}

const NetworkController::Deployment* NetworkController::deployment(
    const std::string& name) const {
  const auto it = deployments_.find(name);
  return it == deployments_.end() ? nullptr : &it->second;
}

const std::vector<QuerySlice>* NetworkController::slices_of(
    const std::string& name) const {
  const Deployment* d = deployment(name);
  return d == nullptr ? nullptr : &d->slices;
}

}  // namespace newton
