#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <chrono>
#include <stdexcept>
#include <string>

namespace newton {

namespace {

MergeOp merge_op_for(SaluOp op) {
  switch (op) {
    case SaluOp::Add: return MergeOp::Add;   // count-min rows: sums add
    case SaluOp::Or: return MergeOp::Or;     // bloom rows: membership unions
    case SaluOp::Write:
    case SaluOp::Read:
      // Key-group sharding sends every packet of one key to one worker, so
      // max picks the value of the worker that wrote it (zeros elsewhere).
      return MergeOp::Max;
  }
  return MergeOp::Max;
}

}  // namespace

ShardedRuntime::ShardedRuntime(NewtonSwitch& primary, RuntimeOptions opts,
                               Analyzer* analyzer)
    : primary_(primary),
      opts_(opts),
      controller_(primary),
      analyzer_(analyzer) {
  if (opts_.num_shards == 0)
    throw std::invalid_argument("ShardedRuntime: num_shards must be > 0");
  controller_.set_mutation_guard([this] {
    if (started_ && !at_barrier_)
      throw std::logic_error(
          "ShardedRuntime: controller mutation while a window is open; use "
          "install()/withdraw(), which quiesce at the next window barrier");
  });
  // Online compaction reassigns a moved query's qids; keep snapshot
  // attribution and analyzer routing in step, and force a replica reload so
  // the workers pick up the migrated layout.
  controller_.set_rebind_hook(
      [this](const std::string& name, const std::vector<uint16_t>& qids) {
        own(name, qids);
      });
  if (opts_.burst == 0) opts_.burst = 1;
  workers_.reserve(opts_.num_shards);
  for (std::size_t i = 0; i < opts_.num_shards; ++i)
    workers_.push_back(std::make_unique<ShardWorker>(
        primary_, i, opts_.queue_capacity, opts_.burst, opts_.jit));
  staging_.resize(opts_.num_shards);
  for (auto& s : staging_) s.reserve(opts_.burst);
  stats_.workers.resize(opts_.num_shards);
  flushed_.workers.resize(opts_.num_shards);
  shard_map_.resize(opts_.num_shards);
  for (std::size_t i = 0; i < opts_.num_shards; ++i) shard_map_[i] = i;
  alive_.assign(opts_.num_shards, 1);
  fences_posted_.assign(opts_.num_shards, 0);
  live_count_ = opts_.num_shards;
  stats_.live_shards = live_count_;
  bind_telemetry();
}

void ShardedRuntime::bind_telemetry() {
  telemetry::Registry& reg =
      opts_.registry ? *opts_.registry : telemetry::Registry::global();
  metrics_.packets_in = &reg.counter("newton_runtime_packets_in_total",
                                     "Packets demuxed into the shards");
  metrics_.windows = &reg.counter("newton_runtime_windows_total",
                                  "Window barriers completed");
  metrics_.ring_stalls =
      &reg.counter("newton_runtime_ring_stalls_total",
                   "Failed SPSC ring pushes (backpressure, queue full)");
  metrics_.rule_updates =
      &reg.counter("newton_runtime_rule_updates_total",
                   "Quiesced rule mutations applied at window barriers");
  metrics_.reports = &reg.counter("newton_runtime_reports_total",
                                  "Reports drained to the attached sinks");
  metrics_.merge_us = &reg.histogram(
      "newton_runtime_window_merge_duration_us",
      "Wall time of one window barrier: drain reports, merge per-worker "
      "banks, apply mutations, reload replicas",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000});
  static constexpr const char* kPhaseNames[kNumPhases] = {
      "fence", "deliver", "merge", "reload", "reset"};
  for (std::size_t p = 0; p < kNumPhases; ++p)
    metrics_.barrier_phase_us[p] = &reg.histogram(
        "newton_runtime_barrier_phase_us",
        "Wall time of one window-barrier phase (docs/telemetry.md)",
        {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000,
         100000},
        {{"phase", kPhaseNames[p]}});
  metrics_.failovers =
      &reg.counter("newton_runtime_worker_failovers_total",
                   "Shard workers declared dead/hung and failed over");
  metrics_.redistributed =
      &reg.counter("newton_runtime_redistributed_packets_total",
                   "Ring-backlog packets moved to a successor shard during "
                   "failover");
  metrics_.abandoned =
      &reg.counter("newton_runtime_abandoned_packets_total",
                   "Ring-backlog packets lost with a hung worker (its "
                   "replica could not be salvaged)");
  metrics_.live_shards = &reg.gauge(
      "newton_runtime_live_shards", "Shard workers still processing packets");
  metrics_.live_shards->set(static_cast<int64_t>(live_count_));
  metrics_.jit_packets =
      &reg.counter("newton_runtime_jit_packets_total",
                   "Packets executed by compiled chain executors "
                   "(src/compile/) instead of the interpreter");
  metrics_.jit_hash_lanes =
      &reg.counter("newton_runtime_jit_hash_lanes_total",
                   "Digests the compiled executors computed "
                   "(docs/compile.md)");
  metrics_.jit_plans =
      &reg.gauge("newton_runtime_jit_plans",
                 "Merged-op plans the compiled executors held at the last "
                 "window fence, summed over live shards (docs/compile.md)");
  metrics_.jit_plan_fallback_runs =
      &reg.counter("newton_runtime_jit_plan_fallback_runs_total",
                   "Multi-query runs merged into scratch because the "
                   "executor's plan table was full");
  metrics_.installs_rejected =
      &reg.counter("newton_runtime_installs_rejected_total",
                   "Queued installs rejected by admission control at a "
                   "window barrier (side-effect-free)");
  metrics_.jit_recompiles =
      &reg.counter("newton_jit_recompiles_total",
                   "Replica loads that lowered the installed chains (the "
                   "start plus every barrier that changed the rules)");
  metrics_.late_packets = &NewtonSwitch::late_packets_series(reg);
  metrics_.shard_groups =
      &reg.gauge("newton_runtime_shard_groups",
                 "Key groups the demux hashes each packet by (derived from "
                 "the installed queries at every replica load)");
  metrics_.shard_visits =
      &reg.counter("newton_runtime_shard_visits_total",
                   "Packet visits pushed to shard rings: one per packet per "
                   "distinct shard its key groups chose");
  metrics_.shard_packets.resize(workers_.size());
  metrics_.shard_occupancy.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const telemetry::Labels shard{{"shard", std::to_string(i)}};
    metrics_.shard_packets[i] =
        &reg.counter("newton_runtime_shard_packets_total",
                     "Packets executed by one shard worker", shard);
    metrics_.shard_occupancy[i] =
        &reg.gauge("newton_runtime_shard_occupancy",
                   "Shard ring depth sampled when the window barrier begins",
                   shard);
  }
}

void ShardedRuntime::flush_telemetry() {
  metrics_.packets_in->add(stats_.packets_in - flushed_.packets_in);
  metrics_.shard_visits->add(stats_.shard_visits - flushed_.shard_visits);
  metrics_.windows->add(stats_.windows - flushed_.windows);
  metrics_.ring_stalls->add(stats_.backpressure_stalls -
                            flushed_.backpressure_stalls);
  metrics_.rule_updates->add(stats_.rule_updates_applied -
                             flushed_.rule_updates_applied);
  metrics_.reports->add(stats_.reports - flushed_.reports);
  metrics_.failovers->add(stats_.worker_failovers - flushed_.worker_failovers);
  metrics_.redistributed->add(stats_.redistributed_packets -
                              flushed_.redistributed_packets);
  metrics_.abandoned->add(stats_.abandoned_packets -
                          flushed_.abandoned_packets);
  metrics_.installs_rejected->add(stats_.installs_rejected -
                                  flushed_.installs_rejected);
  metrics_.jit_recompiles->add(stats_.jit_recompiles -
                               flushed_.jit_recompiles);
  metrics_.late_packets->add(stats_.late_packets - flushed_.late_packets);
  metrics_.live_shards->set(static_cast<int64_t>(live_count_));
  uint64_t plans = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerStats& w = stats_.workers[i];
    const WorkerStats& was = flushed_.workers[i];
    metrics_.shard_packets[i]->add(w.packets - was.packets);
    metrics_.jit_packets->add(w.jit_packets - was.jit_packets);
    metrics_.jit_hash_lanes->add(w.jit_hash_lanes - was.jit_hash_lanes);
    metrics_.jit_plan_fallback_runs->add(w.jit_plan_fallback_runs -
                                         was.jit_plan_fallback_runs);
    if (alive_[i]) plans += w.jit_plans;
  }
  metrics_.jit_plans->set(static_cast<int64_t>(plans));
  flushed_ = stats_;
}

ShardedRuntime::~ShardedRuntime() {
  if (started_) {
    // Best effort: stop threads without a final drain (finish() was not
    // called; destructor must not throw).  Posts to dead workers fail fast
    // and harmlessly; hung workers are reaped by ~ShardWorker, which
    // releases their stall before joining.
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (alive_[i]) post_control(i, WorkItem::Kind::Stop);
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (alive_[i]) workers_[i]->join();
  }
}

void ShardedRuntime::install(const Query& q, CompileOptions opts,
                             const std::string& tenant) {
  if (!started_) {
    at_barrier_ = true;
    try {
      const auto st = controller_.install(q, opts, tenant);
      at_barrier_ = false;
      own(q.name, st.qids);
    } catch (...) {
      at_barrier_ = false;
      throw;
    }
    return;
  }
  pending_.push_back({PendingMutation::Kind::Install, q, opts, q.name,
                      tenant});
}

void ShardedRuntime::withdraw(const std::string& name) {
  if (!started_) {
    at_barrier_ = true;
    controller_.remove(name);
    at_barrier_ = false;
    own(name, {});
    return;
  }
  pending_.push_back({PendingMutation::Kind::Withdraw, {}, {}, name, {}});
}

void ShardedRuntime::start() {
  if (started_) return;
  clock_ = WindowClock(primary_.window_ns());
  reload_replicas();
  for (auto& w : workers_) w->start();
  started_ = true;
}

void ShardedRuntime::process(const Packet& pkt) {
  if (!started_) start();
  if (clock_.rolls(pkt.ts_ns)) {
    barrier();  // flushes all staged packets first: windows stay exact
    // At the primary's length: the barrier's installs may have changed it.
    clock_ = WindowClock(primary_.window_ns());
    clock_.open(pkt.ts_ns);
  }
  ++stats_.packets_in;
  if (!clock_.late(pkt.ts_ns)) {
    demux(pkt);
    return;
  }
  // Folded into the open window, as the switch folds it.
  Packet folded = pkt;
  folded.ts_ns = clock_.start_ns();
  ++stats_.late_packets;
  demux(folded);
}

void ShardedRuntime::demux(const Packet& pkt) {
  // Hashes address the fixed bucket set; the map redirects buckets whose
  // owner failed over.  Packets stage per bucket and move to the owner's
  // ring in bursts — one index handshake per burst instead of per packet.
  const std::size_t nb = shard_map_.size();
  if (groups_.size() == 1 || nb == 1) {
    const std::size_t bucket = groups_[0].key.shard_of(pkt, nb);
    staging_[bucket].push_back({WorkItem::Kind::Packet, all_groups_, pkt});
    if (staging_[bucket].size() >= opts_.burst) flush_bucket(bucket);
    ++stats_.shard_visits;
  } else {
    demux_groups(pkt);
  }
}

void ShardedRuntime::demux_groups(const Packet& pkt) {
  // One visit per distinct bucket, carrying the groups that chose it.
  std::array<std::size_t, kMaxShardGroups> bucket;
  std::array<uint32_t, kMaxShardGroups> mask;
  std::size_t visits = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const std::size_t b = groups_[g].key.shard_of(pkt, shard_map_.size());
    std::size_t v = 0;
    while (v < visits && bucket[v] != b) ++v;
    if (v == visits) {
      bucket[visits] = b;
      mask[visits++] = 0;
    }
    mask[v] |= 1u << g;
  }
  for (std::size_t v = 0; v < visits; ++v) {
    staging_[bucket[v]].push_back({WorkItem::Kind::Packet, mask[v], pkt});
    if (staging_[bucket[v]].size() >= opts_.burst) flush_bucket(bucket[v]);
  }
  stats_.shard_visits += visits;
}

void ShardedRuntime::flush_bucket(std::size_t bucket) {
  auto& buf = staging_[bucket];
  push_to_bucket(bucket, buf.data(), buf.size());
  buf.clear();
}

void ShardedRuntime::flush_staging() {
  for (std::size_t b = 0; b < staging_.size(); ++b)
    if (!staging_[b].empty()) flush_bucket(b);
}

void ShardedRuntime::push_to_bucket(std::size_t bucket, const WorkItem* items,
                                    std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const std::size_t wi = shard_map_[bucket];
    done += workers_[wi]->post(items + done, n - done,
                               opts_.watchdog_stall_ms,
                               stats_.backpressure_stalls);
    // Items already pushed sit in the failed worker's ring backlog, which
    // failover() moves to the successor ahead of the rest of `items`.
    if (done < n) failover(wi);
  }
}

bool ShardedRuntime::post_control(std::size_t wi, WorkItem::Kind kind) {
  const WorkItem item{kind, 0, {}};
  return workers_.at(wi)->post(&item, 1, opts_.watchdog_stall_ms,
                               stats_.backpressure_stalls) == 1;
}

void ShardedRuntime::kill_shard_for_test(std::size_t i) {
  post_control(i, WorkItem::Kind::Kill);
}

void ShardedRuntime::stall_shard_for_test(std::size_t i) {
  post_control(i, WorkItem::Kind::Stall);
}

void ShardedRuntime::failover(std::size_t wi) {
  if (!alive_.at(wi)) return;
  alive_[wi] = 0;
  --live_count_;
  if (live_count_ == 0)
    throw std::runtime_error("ShardedRuntime: every shard worker died");
  ++stats_.worker_failovers;
  stats_.live_shards = live_count_;

  ShardWorker& dead = *workers_[wi];
  // A closed ring means the thread exited on its own (crash simulation or
  // clean death) and its replica is intact: join and salvage.  Otherwise
  // the thread is hung — it may still touch its replica, so nothing can be
  // salvaged; close the ring so no further work lands there, abandon the
  // backlog, and let the destructor reap the thread.
  const bool salvage = dead.dead();
  if (salvage) {
    dead.join();
    stats_.workers[wi] = dead.stats();
  } else {
    dead.ring().close();
  }

  // One successor inherits the whole key range: merging the dead replica's
  // window-partial banks into a single survivor keeps Add counts exact and
  // Or (distinct-suppression) bits effective; splitting the range would
  // re-zero the moved keys' state mid-window.
  std::size_t succ = wi;
  while (true) {
    // Successor scan: the next LIVE worker after `succ` in ring order.
    // Several workers may already be down (failovers cascade, and a fence
    // failure below re-enters this scan), so every dead index must be
    // skipped — and the scan is bounded by one full lap, so a bookkeeping
    // bug (live_count_ > 0 with nothing alive) fails loudly instead of
    // spinning forever.
    std::size_t steps = 0;
    do {
      succ = (succ + 1) % workers_.size();
      if (++steps > workers_.size())
        throw std::logic_error(
            "ShardedRuntime::failover: no live successor found despite "
            "live_count_ > 0");
    } while (!alive_[succ]);
    if (!salvage) break;
    // Quiesce the successor so its replica is safely writable from here.
    if (post_control(succ, WorkItem::Kind::Fence) &&
        workers_[succ]->wait_fence_for(++fences_posted_[succ],
                                       opts_.watchdog_stall_ms))
      break;
    failover(succ);  // the successor died too; pick the next survivor
  }
  for (auto& owner : shard_map_)
    if (owner == wi) owner = succ;

  if (!salvage) {
    // Only packets are lost; a fence or stop token queued behind them is not.
    stats_.abandoned_packets += dead.ring().count_queued(
        [](const WorkItem& it) { return it.kind == WorkItem::Kind::Packet; });
    return;
  }

  // Fold the dead replica's window-partial state into the successor before
  // any moved packet executes there.
  const auto& segs = primary_.state_segments();
  for (const auto& seg : segs)
    workers_[succ]->bank(seg.stage).merge_range_from(
        dead.bank(seg.stage), seg.offset, seg.width, merge_op_for(seg.op));
  // Reports it emitted this window go straight to the sinks (the barrier
  // will not visit this worker again).
  dead.publish_telemetry();
  for (const ReportRecord& r : dead.reports().records()) deliver(r);
  dead.reports().clear();

  // Move the unprocessed backlog (packets queued behind the crash point)
  // into the open window: every bucket the dead worker owned now maps where
  // bucket `wi` does, so its packet runs go as bulk pushes, read in place
  // from the dead ring (the demux consumes it now the thread is joined).
  SpscRing<WorkItem>& backlog = dead.ring();
  for (auto s = backlog.peek(backlog.capacity()); !s.empty();
       s = backlog.peek(backlog.capacity())) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      std::size_t j = i;
      while (j < s.size() && s[j].kind == WorkItem::Kind::Packet) ++j;
      push_to_bucket(wi, s.data() + i, j - i);
      stats_.redistributed_packets += j - i;
      i = j;  // s[j], if any, is a control item
    }
    backlog.consume(s.size());
  }
}

void ShardedRuntime::run(const Trace& t) {
  for (const Packet& p : t.packets) process(p);
}

void ShardedRuntime::finish() {
  if (!started_) return;
  barrier();  // drain the final (partial) window
  // The barrier left every live ring empty, so each Stop lands at once.
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) post_control(i, WorkItem::Kind::Stop);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!alive_[i]) continue;  // dead: joined at failover, or hung (reaped
                               // by ~ShardWorker)
    workers_[i]->join();
    stats_.workers[i] = workers_[i]->stats();
  }
  flush_telemetry();
  started_ = false;  // the next packet's start() opens a fresh clock
}

void ShardedRuntime::lap(Phase p) {
  const auto now = std::chrono::steady_clock::now();
  metrics_.barrier_phase_us[static_cast<std::size_t>(p)]->observe(
      std::chrono::duration<double, std::micro>(now - phase_t0_).count());
  phase_t0_ = now;
}

void ShardedRuntime::barrier() {
  phase_t0_ = std::chrono::steady_clock::now();
  // Everything staged belongs to the closing window: move it into the
  // rings before the fences go out.
  flush_staging();
  // Fence every live worker; a worker found dead or hung here fails over
  // and the round restarts, so survivors that just absorbed a failed-over
  // backlog are re-fenced before the merge — window reports stay complete.
  while (true) {
    // Occupancy just before the fence: how much of the window's tail each
    // shard still had queued when the demux hit the window roll.
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (alive_[i])
        metrics_.shard_occupancy[i]->set(
            static_cast<int64_t>(workers_[i]->ring().size_approx()));
    bool redo = false;
    for (std::size_t i = 0; i < workers_.size() && !redo; ++i) {
      if (!alive_[i]) continue;
      // A fence that cannot land within the watchdog deadline (dead ring,
      // or a hung worker's full ring) fails the worker over like a burst.
      if (post_control(i, WorkItem::Kind::Fence)) {
        ++fences_posted_[i];
      } else {
        failover(i);
        redo = true;
      }
    }
    for (std::size_t i = 0; i < workers_.size() && !redo; ++i) {
      if (!alive_[i]) continue;
      if (!workers_[i]->wait_fence_for(fences_posted_[i],
                                       opts_.watchdog_stall_ms)) {
        failover(i);
        redo = true;
      }
    }
    if (!redo) break;
  }
  lap(Phase::Fence);
  // All live workers quiesced; their replica state is now safely readable.
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) workers_[i]->publish_telemetry();
  const auto merge_t0 = std::chrono::steady_clock::now();
  drain_and_merge();
  lap(Phase::Merge);
  apply_mutations();
  phase_t0_ = std::chrono::steady_clock::now();  // mutations are in no phase
  if (replicas_dirty_) {
    reload_replicas();  // reloaded replicas start with zeroed banks
    lap(Phase::Reload);
  } else {
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (alive_[i]) workers_[i]->reset_banks();
    lap(Phase::Reset);
  }
  metrics_.merge_us->observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - merge_t0)
          .count());
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) stats_.workers[i] = workers_[i]->stats();
  ++stats_.windows;
  flush_telemetry();
  // The next ring push publishes every replica mutation above to the
  // worker (release/acquire on the ring indices).
}

void ShardedRuntime::deliver(const ReportRecord& r) {
  if (analyzer_) analyzer_->report(r);
  if (extra_sink_) extra_sink_->report(r);
  ++stats_.reports;
}

void ShardedRuntime::drain_and_merge() {
  WindowSnapshot snap;
  snap.window = clock_.window();

  // Reports, in shard order (deterministic given a deterministic demux).
  // Dead workers' final reports were already delivered at failover.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!alive_[i]) continue;
    ShardWorker& w = *workers_[i];
    for (const ReportRecord& r : w.reports().records()) deliver(r);
    snap.reports += w.reports().size();
    w.reports().clear();
  }
  lap(Phase::Deliver);

  // Fold the per-worker banks into the primary switch's banks, slice by
  // allocated slice, so the merged end-of-window state is introspectable on
  // the primary exactly as if it had executed the whole window itself.
  primary_.reset_state();
  const auto& segs = primary_.state_segments();
  for (const auto& seg : segs) {
    const MergeOp op = merge_op_for(seg.op);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!alive_[i]) continue;
      primary_.bank(seg.stage).merge_range_from(workers_[i]->bank(seg.stage),
                                                seg.offset, seg.width, op);
    }
  }

  if (!opts_.record_snapshots) return;

  {
    // Per-branch result snapshot: the branch's slices in (stage, offset)
    // order, read back from the merged primary banks.
    auto ordered = segs;
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      return std::tie(a.qid, a.stage, a.offset) <
             std::tie(b.qid, b.stage, b.offset);
    });
    BranchSnapshot* cur = nullptr;
    uint16_t cur_qid = 0;
    for (const auto& seg : ordered) {
      if (!cur || cur_qid != seg.qid) {
        const auto it = qid_owner_.find(seg.qid);
        snap.branches.push_back(
            {it == qid_owner_.end() ? "?" : it->second.first,
             it == qid_owner_.end() ? 0 : it->second.second,
             {}});
        cur = &snap.branches.back();
        cur_qid = seg.qid;
      }
      const RegisterArray& bank = primary_.bank(seg.stage);
      for (std::size_t i = 0; i < seg.width; ++i)
        cur->state.push_back(bank.read(seg.offset + i));
    }
  }
  snapshots_.push_back(std::move(snap));
}

void ShardedRuntime::apply_mutations() {
  if (pending_.empty()) return;
  at_barrier_ = true;
  bool applied = false;
  for (auto& m : pending_) {
    if (m.kind == PendingMutation::Kind::Install) {
      // Admission-checked: a rejected install is recorded and provably
      // side-effect-free — it must never throw out of the barrier and wedge
      // the runtime mid-window.
      auto out = controller_.try_install(m.q, m.opts, m.tenant);
      if (!out.admitted()) {
        ++stats_.installs_rejected;
        rejections_.push_back(
            {m.q.name, m.tenant, std::move(out.decision), clock_.window()});
        continue;
      }
      own(m.q.name, out.stats.qids);
    } else {
      // A withdraw whose target is absent at apply time (its install was
      // rejected in this same batch, or it raced an earlier withdraw) is a
      // no-op, not an error.
      if (!controller_.installed(m.name)) continue;
      controller_.remove(m.name);
      own(m.name, {});
    }
    applied = true;
    ++stats_.rule_updates_applied;
  }
  at_barrier_ = false;
  pending_.clear();
  // Rejected-only batches leave the pipeline byte-identical: no reload
  // (unless auto-compaction moved something, which the rebind hook flags).
  if (applied) replicas_dirty_ = true;
}

void ShardedRuntime::own(const std::string& name,
                         const std::vector<uint16_t>& qids) {
  for (auto it = qid_owner_.begin(); it != qid_owner_.end();)
    it = it->second.first == name ? qid_owner_.erase(it) : std::next(it);
  for (std::size_t bi = 0; bi < qids.size(); ++bi) {
    qid_owner_[qids[bi]] = {name, bi};
    if (analyzer_) analyzer_->register_qid_any(qids[bi], name, bi);
  }
  replicas_dirty_ = true;
}

void ShardedRuntime::reload_replicas() {
  derive_groups();
  // At one shard every visit carries every group: the worker filters none.
  std::vector<std::bitset<kMaxQueries>> group_qids(
      shard_map_.size() > 1 ? groups_.size() : 0);
  for (std::size_t g = 0; g < group_qids.size(); ++g)
    for (uint16_t q : groups_[g].qids) group_qids[g].set(q);
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) workers_[i]->load_replica(group_qids);
  replicas_dirty_ = false;
  if (opts_.jit) ++stats_.jit_recompiles;
}

void ShardedRuntime::derive_groups() {
  // Installed branches in install order (a compaction move reinstalls).
  // State is zero at every window start, so a branch may change group at
  // any barrier.
  std::vector<Controller::QueryInfo> infos = controller_.list_queries();
  std::sort(infos.begin(), infos.end(), [](const auto& a, const auto& b) {
    return a.handle < b.handle;
  });
  std::vector<ShardBranch> branches;
  for (const Controller::QueryInfo& info : infos) {
    const CompiledQuery* cq = controller_.compiled(info.name);
    for (std::size_t bi = 0; bi < info.qids.size(); ++bi)
      branches.push_back(
          {info.qids[bi],
           &cq->source.branches.at(cq->branches.at(bi).branch_index)});
  }
  groups_ = derive_shard_groups(branches, opts_.shard_key);
  all_groups_ = groups_.size() >= 32 ? ~0u : (1u << groups_.size()) - 1u;
  metrics_.shard_groups->set(static_cast<int64_t>(groups_.size()));
  for (auto& [name, gauge] : metrics_.shard_pinned) gauge->set(0);
  telemetry::Registry& reg =
      opts_.registry ? *opts_.registry : telemetry::Registry::global();
  for (const ShardGroup& g : groups_) {
    if (!g.pinned) continue;
    for (uint16_t q : g.qids) {
      const auto it = qid_owner_.find(q);
      const std::string name = it == qid_owner_.end() ? "?" : it->second.first;
      auto& gauge = metrics_.shard_pinned[name];
      if (gauge == nullptr)
        gauge = &reg.gauge("newton_runtime_shard_pinned",
                           "Branches of a query with no field common to its "
                           "stateful keys, run on one shard",
                           {{"query", name}});
      gauge->add(1);
    }
  }
}

}  // namespace newton
