#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
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
      // Key-affine sharding means at most one worker ever wrote a given
      // register, so max picks that worker's value (zeros elsewhere).
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
        for (auto it = qid_owner_.begin(); it != qid_owner_.end();)
          it = it->second.first == name ? qid_owner_.erase(it)
                                        : std::next(it);
        for (std::size_t bi = 0; bi < qids.size(); ++bi) {
          qid_owner_[qids[bi]] = {name, bi};
          if (analyzer_) analyzer_->register_qid_any(qids[bi], name, bi);
        }
        replicas_dirty_ = true;
      });
  if (opts_.burst == 0) opts_.burst = 1;
  // The environment escape hatch wins over the option: one variable
  // bisects a suspected compiled-executor miscompare back to the
  // interpreter without touching any call site.
  if (std::getenv("NEWTON_NO_JIT") != nullptr) opts_.jit = false;
  compile::ExecOptions exec_opts;
  exec_opts.enabled = opts_.jit;
  workers_.reserve(opts_.num_shards);
  for (std::size_t i = 0; i < opts_.num_shards; ++i) {
    workers_.push_back(std::make_unique<ShardWorker>(i, opts_.queue_capacity,
                                                     opts_.burst));
    workers_.back()->set_exec_options(exec_opts);
  }
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
                   "Digest lanes the compiled executors hashed in "
                   "batches (docs/compile.md)");
  metrics_.installs_rejected =
      &reg.counter("newton_runtime_installs_rejected_total",
                   "Queued installs rejected by admission control at a "
                   "window barrier (side-effect-free)");
  metrics_.jit_recompiles =
      &reg.counter("newton_jit_recompiles_total",
                   "Chain-JIT rebuild events (back-to-back rule updates "
                   "coalesce into one rebuild; see jit_debounce_windows)");
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
  metrics_.live_shards->set(static_cast<int64_t>(live_count_));
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    metrics_.shard_packets[i]->add(stats_.workers[i].packets -
                                   flushed_.workers[i].packets);
    metrics_.jit_packets->add(stats_.workers[i].jit_packets -
                              flushed_.workers[i].jit_packets);
    metrics_.jit_hash_lanes->add(stats_.workers[i].jit_hash_lanes -
                                 flushed_.workers[i].jit_hash_lanes);
  }
  flushed_ = stats_;
}

ShardedRuntime::~ShardedRuntime() {
  if (started_) {
    // Best effort: stop threads without a final drain (finish() was not
    // called; destructor must not throw).  Posts to dead workers fail fast
    // and harmlessly; hung workers are reaped by ~ShardWorker, which
    // releases their stall before joining.
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (alive_[i]) workers_[i]->post({WorkItem::Kind::Stop, {}});
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
      for (std::size_t bi = 0; bi < st.qids.size(); ++bi) {
        qid_owner_[st.qids[bi]] = {q.name, bi};
        if (analyzer_) analyzer_->register_qid_any(st.qids[bi], q.name, bi);
      }
    } catch (...) {
      at_barrier_ = false;
      throw;
    }
    replicas_dirty_ = true;
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
    for (auto it = qid_owner_.begin(); it != qid_owner_.end();)
      it = it->second.first == name ? qid_owner_.erase(it) : std::next(it);
    replicas_dirty_ = true;
    return;
  }
  pending_.push_back({PendingMutation::Kind::Withdraw, {}, {}, name, {}});
}

void ShardedRuntime::start() {
  if (started_) return;
  reload_replicas();
  for (auto& w : workers_) {
    w->reset_banks();
    w->start();
  }
  started_ = true;
}

void ShardedRuntime::process(const Packet& pkt) {
  if (!started_) start();
  const uint64_t wns = primary_.window_ns();
  const uint64_t epoch = wns == 0 ? 0 : pkt.ts_ns / wns;
  if (!have_epoch_) {
    // Match NewtonSwitch::maybe_roll_epoch, which starts at epoch 0: a
    // trace beginning mid-epoch still closes "window 0" first.
    cur_epoch_ = 0;
    have_epoch_ = true;
  }
  if (epoch != cur_epoch_) {
    barrier();  // flushes all staged packets first: windows stay exact
    cur_epoch_ = epoch;
  }
  // Hashes address the fixed bucket set; the map redirects buckets whose
  // owner failed over.  Packets stage per bucket and move to the owner's
  // ring in bursts — one index handshake per burst instead of per packet.
  const std::size_t bucket = opts_.shard_key.shard_of(pkt, shard_map_.size());
  staging_[bucket].push_back({WorkItem::Kind::Packet, pkt});
  if (staging_[bucket].size() >= opts_.burst) flush_bucket(bucket);
  ++stats_.packets_in;
}

void ShardedRuntime::flush_bucket(std::size_t bucket) {
  auto& buf = staging_[bucket];
  std::size_t done = 0;
  while (done < buf.size()) {
    const std::size_t wi = shard_map_[bucket];
    ShardWorker& w = *workers_[wi];
    const uint64_t hb = w.heartbeat();
    std::size_t pushed = 0;
    const auto r = w.ring().push_bulk_for(buf.data() + done,
                                          buf.size() - done,
                                          opts_.watchdog_stall_ms, &pushed);
    done += pushed;
    stats_.backpressure_stalls += r.stalls;
    if (r.ok) break;  // everything landed
    // Push failed: the ring closed (worker crashed), or it made no progress
    // past the watchdog deadline.  An advancing heartbeat means a slow but
    // live worker — retry; frozen heartbeat means a hang.  Items already
    // pushed sit in the dead worker's ring backlog, which failover()
    // salvages and redistributes ahead of the rest of this buffer.
    if (!w.dead() && w.heartbeat() != hb) continue;
    failover(wi);
  }
  buf.clear();
}

void ShardedRuntime::flush_staging() {
  for (std::size_t b = 0; b < staging_.size(); ++b)
    if (!staging_[b].empty()) flush_bucket(b);
}

void ShardedRuntime::route_packet(std::size_t bucket, const Packet& pkt) {
  while (true) {
    const std::size_t wi = shard_map_[bucket];
    ShardWorker& w = *workers_[wi];
    const uint64_t hb = w.heartbeat();
    const auto r = w.ring().push_for({WorkItem::Kind::Packet, pkt},
                                     opts_.watchdog_stall_ms);
    stats_.backpressure_stalls += r.stalls;
    if (r.ok) return;
    // Push failed: the ring closed (worker crashed), or it stayed full past
    // the watchdog deadline.  A full ring with an advancing heartbeat is
    // just a slow worker — retry; frozen heartbeat means a hang.
    if (!w.dead() && w.heartbeat() != hb) continue;
    failover(wi);
  }
}

void ShardedRuntime::kill_shard_for_test(std::size_t i) {
  workers_.at(i)->post({WorkItem::Kind::Kill, {}});
}

void ShardedRuntime::stall_shard_for_test(std::size_t i) {
  workers_.at(i)->post({WorkItem::Kind::Stall, {}});
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
    ++fences_posted_[succ];
    const auto fr = workers_[succ]->post({WorkItem::Kind::Fence, {}});
    stats_.backpressure_stalls += fr.stalls;
    if (fr.ok && workers_[succ]->wait_fence_for(fences_posted_[succ],
                                                opts_.watchdog_stall_ms))
      break;
    failover(succ);  // the successor died too; pick the next survivor
  }
  for (auto& owner : shard_map_)
    if (owner == wi) owner = succ;

  if (!salvage) {
    stats_.abandoned_packets += dead.ring().size_approx();
    return;
  }

  // Fold the dead replica's window-partial state into the successor before
  // any moved packet executes there.
  const auto segs = primary_.state_segments();
  for (const auto& seg : segs) {
    if (!dead.has_bank(seg.stage) || !workers_[succ]->has_bank(seg.stage))
      continue;
    workers_[succ]->bank(seg.stage).merge_range_from(
        dead.bank(seg.stage), seg.offset, seg.width, merge_op_for(seg.op));
  }
  // Reports it emitted this window go straight to the sinks (the barrier
  // will not visit this worker again).
  dead.publish_telemetry();
  for (const ReportRecord& r : dead.reports().records()) deliver(r);
  dead.reports().clear();

  // Re-push the unprocessed backlog (items queued behind the crash point)
  // through the remapped buckets, keeping them in the open window.
  WorkItem item;
  while (dead.ring().try_pop(item)) {
    if (item.kind != WorkItem::Kind::Packet) continue;
    route_packet(opts_.shard_key.shard_of(item.pkt, shard_map_.size()),
                 item.pkt);
    ++stats_.redistributed_packets;
  }
}

void ShardedRuntime::run(const Trace& t) {
  for (const Packet& p : t.packets) process(p);
}

void ShardedRuntime::finish() {
  if (!started_) return;
  barrier();  // drain the final (partial) window
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) workers_[i]->post({WorkItem::Kind::Stop, {}});
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!alive_[i]) continue;  // dead: joined at failover, or hung (reaped
                               // by ~ShardWorker)
    workers_[i]->join();
    stats_.workers[i] = workers_[i]->stats();
  }
  flush_telemetry();
  started_ = false;
  have_epoch_ = false;
}

void ShardedRuntime::barrier() {
  // Everything staged belongs to the closing window: move it into the
  // rings before the fences go out.
  flush_staging();
  // Fence every live worker; a worker found dead or hung here fails over
  // and the round restarts, so survivors that just absorbed a failed-over
  // backlog are re-fenced before the merge — window reports stay complete.
  while (true) {
    // Occupancy just before the fence: how much of the window's tail each
    // shard still had queued when the demux hit the epoch boundary.
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (alive_[i])
        metrics_.shard_occupancy[i]->set(
            static_cast<int64_t>(workers_[i]->ring().size_approx()));
    bool redo = false;
    for (std::size_t i = 0; i < workers_.size() && !redo; ++i) {
      if (!alive_[i]) continue;
      ++fences_posted_[i];
      const auto r = workers_[i]->post({WorkItem::Kind::Fence, {}});
      stats_.backpressure_stalls += r.stalls;
      if (!r.ok) {
        --fences_posted_[i];  // nothing was enqueued
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
  // All live workers quiesced; their replica state is now safely readable.
  // Publish replica telemetry before any reload replaces the replicas.
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) workers_[i]->publish_telemetry();
  const auto merge_t0 = std::chrono::steady_clock::now();
  const bool mutating = !pending_.empty();
  drain_and_merge();
  apply_mutations();
  if (replicas_dirty_)
    reload_replicas(/*build_jit=*/opts_.jit_debounce_windows == 0);
  maybe_relower(mutating);
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) workers_[i]->reset_banks();
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
  snap.window = cur_epoch_;

  // Reports, in shard order (deterministic given a deterministic demux).
  // Dead workers' final reports were already delivered at failover.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!alive_[i]) continue;
    ShardWorker& w = *workers_[i];
    for (const ReportRecord& r : w.reports().records()) deliver(r);
    snap.reports += w.reports().size();
    w.reports().clear();
  }

  // Fold the per-worker banks into the primary switch's banks, slice by
  // allocated slice, so the merged end-of-window state is introspectable on
  // the primary exactly as if it had executed the whole window itself.
  primary_.reset_state();
  const auto segs = primary_.state_segments();
  for (const auto& seg : segs) {
    const MergeOp op = merge_op_for(seg.op);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!alive_[i] || !workers_[i]->has_bank(seg.stage)) continue;
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
            {m.q.name, m.tenant, std::move(out.decision), cur_epoch_});
        continue;
      }
      for (std::size_t bi = 0; bi < out.stats.qids.size(); ++bi) {
        qid_owner_[out.stats.qids[bi]] = {m.q.name, bi};
        if (analyzer_)
          analyzer_->register_qid_any(out.stats.qids[bi], m.q.name, bi);
      }
    } else {
      // A withdraw whose target is absent at apply time (its install was
      // rejected in this same batch, or it raced an earlier withdraw) is a
      // no-op, not an error.
      if (!controller_.installed(m.name)) continue;
      controller_.remove(m.name);
      for (auto it = qid_owner_.begin(); it != qid_owner_.end();)
        it = it->second.first == m.name ? qid_owner_.erase(it) : std::next(it);
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

void ShardedRuntime::reload_replicas(bool build_jit) {
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i])
      workers_[i]->load_replica(primary_.pipeline(), primary_.init_table(),
                                build_jit);
  replicas_dirty_ = false;
  if (opts_.jit && build_jit) {
    ++stats_.jit_recompiles;
    jit_stale_ = false;
    publish_jit_coverage();
  } else if (opts_.jit) {
    jit_stale_ = true;
    quiet_barriers_ = 0;
  }
}

void ShardedRuntime::maybe_relower(bool mutated_this_barrier) {
  if (!opts_.jit || !jit_stale_) return;
  if (mutated_this_barrier) {
    quiet_barriers_ = 0;
    return;
  }
  if (++quiet_barriers_ < opts_.jit_debounce_windows) return;
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) workers_[i]->relower_chains();
  ++stats_.jit_recompiles;
  jit_stale_ = false;
  quiet_barriers_ = 0;
  publish_jit_coverage();
}

std::vector<compile::QueryCoverage> ShardedRuntime::jit_coverage() const {
  for (std::size_t i = 0; i < workers_.size(); ++i)
    if (alive_[i]) return workers_[i]->jit().coverage();
  return {};
}

void ShardedRuntime::publish_jit_coverage() {
  if (!opts_.jit) return;
  telemetry::Registry& reg =
      opts_.registry ? *opts_.registry : telemetry::Registry::global();
  for (const compile::QueryCoverage& c : jit_coverage()) {
    const auto it = qid_owner_.find(c.qid);
    const telemetry::Labels labels{
        {"query", it == qid_owner_.end() ? "?" : it->second.first},
        {"branch",
         std::to_string(it == qid_owner_.end() ? 0 : it->second.second)}};
    reg.gauge("newton_jit_query_compiled",
              "1 = the query branch's chain runs compiled, "
              "0 = interpreter fallback",
              labels)
        .set(c.compiled ? 1 : 0);
  }
}

}  // namespace newton
