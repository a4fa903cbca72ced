// Sharded parallel execution runtime.
//
// Partitions a time-sorted packet stream across N worker threads — each
// owning a private replica of the primary switch's layout, rules and
// register banks — by flow-key hashes derived from the installed queries,
// while preserving exact single-threaded query semantics (docs/runtime.md):
//
//   * key groups: the installed branches are partitioned into groups that
//     each share an affine shard key (derive_shard_groups), re-derived at
//     every replica load;
//   * demux thread:  one shard = hash(group key) % N per group, the packet
//     pushed once per distinct shard into the worker's bounded SPSC ring
//     (backpressure counted, never dropped), carrying the groups that
//     chose that shard — the worker runs only their branches;
//   * windows are the synchronization unit: the demux runs the window
//     clock (core/window.h) at the primary's window length, folding a late
//     packet into the open window; on each window roll it fences every
//     worker, merges the per-worker state banks
//     (count-min rows by element-wise add, bloom rows by or) back into the
//     primary switch's banks, drains the per-worker report buffers into the
//     attached Analyzer/sink, snapshots per-query results, zeroes replica
//     state, and only then releases the next window's packets;
//   * rule install/withdraw mid-stream (the paper's core claim) rides the
//     same barrier: mutations queue and apply atomically while all workers
//     are quiesced, through the ordinary Controller; direct Controller
//     mutation while a window is open is rejected by the quiesce guard;
//   * a watchdog tolerates shard-worker death: a worker whose ring closed
//     (crash) or whose heartbeat froze with work outstanding (hang) is
//     failed over — its flow-key buckets are redirected to one surviving
//     shard, its window-partial register banks merged into that successor,
//     its pending reports delivered, and its ring backlog moved there, so
//     window reports stay complete across the failure (docs/fault.md).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/controller.h"
#include "core/newton_switch.h"
#include "runtime/shard_hash.h"
#include "runtime/worker.h"
#include "telemetry/telemetry.h"
#include "trace/trace_gen.h"

namespace newton {

struct RuntimeOptions {
  std::size_t num_shards = 1;
  std::size_t queue_capacity = 4096;  // per-worker ring slots
  // Hot-path batch size: the demux stages up to this many packets per
  // shard before one bulk ring push, and workers drain/execute in bursts
  // of the same size (docs/runtime.md "Hot path").  1 reproduces the
  // item-at-a-time handoff exactly; results are byte-identical at any
  // value — only the synchronization amortization changes.
  std::size_t burst = 64;
  // Unset (the default): the runtime derives the key groups from the
  // installed queries, exact at any shard count.  Set: group 0's key; the
  // branches it is affine for join group 0 and the rest are grouped as when
  // unset, so an explicit key can cost balance but never correctness.
  std::optional<ShardKey> shard_key;
  // Keep per-window merged result snapshots (tests compare them across
  // shard counts; benches turn this off).
  bool record_snapshots = true;
  // Registry receiving the runtime's metrics (windows, ring stalls, window
  // merge durations, shard occupancy).  Defaults to the process-global
  // registry; benches and determinism tests pass private instances so
  // sequential runs do not accumulate.
  telemetry::Registry* registry = nullptr;
  // Watchdog deadline: a worker that makes no progress (heartbeat frozen)
  // for this long while work is outstanding is declared failed and its
  // shard range fails over.  0 disables the deadline (death is then only
  // detected via a closed ring).
  uint64_t watchdog_stall_ms = 2000;
  // Lower installed chains into compiled per-query executors in every
  // worker (src/compile/, docs/compile.md) at every replica load, so every
  // packet runs compiled; false runs every packet on the (byte-identical)
  // interpreter.
  bool jit = true;
};

// Aggregated per-run totals, derived from the same values the telemetry
// registry exports (kept as a plain struct so callers can read one run's
// numbers without diffing registry snapshots).
struct RuntimeStats {
  uint64_t packets_in = 0;            // packets demuxed into the shards
  uint64_t shard_visits = 0;          // ring items: one per packet per
                                      // distinct shard its groups chose
  uint64_t windows = 0;               // window barriers completed
  uint64_t backpressure_stalls = 0;   // failed ring pushes (queue full)
  uint64_t rule_updates_applied = 0;  // quiesced mutations applied
  uint64_t reports = 0;               // reports forwarded to the sink(s)
  uint64_t worker_failovers = 0;      // shard workers failed over
  uint64_t redistributed_packets = 0; // ring backlog moved to a successor
  uint64_t abandoned_packets = 0;     // backlog lost with a hung worker
  uint64_t installs_rejected = 0;     // queued installs admission rejected
  uint64_t jit_recompiles = 0;        // replica loads that lowered chains
  uint64_t late_packets = 0;          // stamped before the open window,
                                      // folded into it
  std::size_t live_shards = 0;        // workers still processing
  std::vector<WorkerStats> workers;   // per shard, refreshed at barriers
};

// End-of-window contents of every register slice one query branch
// allocated, after folding the per-worker replicas together.
struct BranchSnapshot {
  std::string query;
  std::size_t branch = 0;
  std::vector<uint32_t> state;  // branch's slices, concatenated in layout order

  friend bool operator==(const BranchSnapshot&, const BranchSnapshot&) =
      default;
};

struct WindowSnapshot {
  uint64_t window = 0;      // window_of() index of the closed window
  std::size_t reports = 0;  // reports drained at this barrier
  std::vector<BranchSnapshot> branches;
};

class ShardedRuntime {
 public:
  // `analyzer` (optional) receives every drained report and gets qid
  // registrations for queries installed through the runtime.
  explicit ShardedRuntime(NewtonSwitch& primary, RuntimeOptions opts = {},
                          Analyzer* analyzer = nullptr);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  // Additional raw-record sink (tests use a ReportBuffer); reports go to
  // both this and the analyzer.
  void set_report_sink(ReportSink* sink) { extra_sink_ = sink; }

  // Install / withdraw a query.  Before the stream starts this applies
  // immediately; mid-stream it queues and applies at the next window
  // barrier, where every worker is quiesced (rule updates never observe a
  // half-processed window).  Queued installs pass admission control when
  // applied: a rejected install never throws out of the barrier — it is
  // counted, recorded in rejections(), and provably leaves the pipeline
  // untouched.  Withdrawing a name that is not installed at apply time
  // (e.g. its install was rejected in the same batch) is a counted no-op.
  void install(const Query& q, CompileOptions opts = {},
               const std::string& tenant = kDefaultTenant);
  void withdraw(const std::string& name);

  // One admission-rejected queued install.
  struct RejectedInstall {
    std::string query;
    std::string tenant;
    AdmitDecision decision;
    uint64_t window = 0;  // window the rejecting barrier closed
  };
  const std::vector<RejectedInstall>& rejections() const {
    return rejections_;
  }

  // Direct controller access (reads are always safe; mutation while a
  // window is open throws via the quiesce guard).
  Controller& controller() { return controller_; }

  void start();                      // load replicas, spawn workers
  void process(const Packet& pkt);   // demux one packet (caller = one thread)
  void run(const Trace& t);          // convenience replay loop
  void finish();                     // final barrier, stop and join workers

  const RuntimeStats& stats() const { return stats_; }
  const std::vector<WindowSnapshot>& snapshots() const { return snapshots_; }
  std::size_t num_shards() const { return workers_.size(); }
  // The key groups of the last replica load (start, or a barrier that
  // changed the installed set).
  const std::vector<ShardGroup>& shard_groups() const { return groups_; }
  std::size_t live_shards() const { return live_count_; }

  // Whether chain compilation is on for this runtime (RuntimeOptions::jit).
  bool jit_enabled() const { return opts_.jit; }

  // Fault-injection seams: make shard `i` crash (close its ring and exit
  // without acking — detected at the demux's next push to it) or hang
  // (stop consuming with a frozen heartbeat — detected by the watchdog
  // deadline) at exactly this point in its item stream.
  void kill_shard_for_test(std::size_t i);
  void stall_shard_for_test(std::size_t i);
  // Read access to shard `i`'s replica; only while no worker runs (before
  // the first packet, or after finish()).
  const ShardWorker& worker_for_test(std::size_t i) const {
    return *workers_.at(i);
  }

 private:
  void barrier();           // fence all workers, merge, drain, mutate, reset
  void drain_and_merge();   // reports -> sinks, banks -> primary, snapshot
  void apply_mutations();   // queued installs/withdrawals, under quiesce
  // Re-derive the key groups, then copy the primary's rules into every
  // live worker's replica, lowering its chains when the jit is on.
  void reload_replicas();
  void derive_groups();  // groups_ from the installed branches
  // Record an installed query's qids (none: withdrawn) for snapshot
  // attribution and analyzer routing, and force a replica reload.
  void own(const std::string& name, const std::vector<uint16_t>& qids);
  // Stage `pkt` into the bucket(s) its key groups choose.
  void demux(const Packet& pkt);
  // Several key groups: stage `pkt` once per distinct bucket of its groups.
  void demux_groups(const Packet& pkt);
  void deliver(const ReportRecord& r);
  void bind_telemetry();    // resolve metric handles against the registry
  void flush_telemetry();   // mirror counters batched at each barrier
  // Bulk-push everything staged for `bucket` into its current owner's ring
  // (single index handshake per burst).
  void flush_bucket(std::size_t bucket);
  void flush_staging();  // all buckets, in bucket order (window barriers)
  // Push items, in order, to the worker owning `bucket`, failing over dead
  // or hung owners until every item lands.
  void push_to_bucket(std::size_t bucket, const WorkItem* items,
                      std::size_t n);
  // Post one control item to worker `wi` under the watchdog deadline;
  // false (nothing enqueued) when the worker is dead or hung.
  bool post_control(std::size_t wi, WorkItem::Kind kind);
  // Retire worker `wi`: remap its buckets to a surviving shard and (when
  // the thread exited and left its replica intact) merge its window-partial
  // state into that successor, deliver its pending reports, and move its
  // ring backlog there so the open window stays complete.
  void failover(std::size_t wi);

  struct PendingMutation {
    enum class Kind : uint8_t { Install, Withdraw } kind;
    Query q;             // Install
    CompileOptions opts; // Install
    std::string name;    // Withdraw
    std::string tenant;  // Install
  };

  NewtonSwitch& primary_;
  RuntimeOptions opts_;
  Controller controller_;
  Analyzer* analyzer_;
  ReportSink* extra_sink_ = nullptr;

  std::vector<std::unique_ptr<ShardWorker>> workers_;
  // Per-bucket staging: packets accumulate here until a burst is full (or
  // a window barrier flushes), then move into the owner's ring with one
  // bulk push.  Preallocated to the burst size — the demux hot path never
  // allocates.
  std::vector<std::vector<WorkItem>> staging_;
  std::vector<PendingMutation> pending_;
  std::vector<RejectedInstall> rejections_;
  // qid -> (query name, branch), for snapshot attribution.
  std::map<uint16_t, std::pair<std::string, std::size_t>> qid_owner_;
  std::vector<ShardGroup> groups_;
  uint32_t all_groups_ = 1;  // mask with one bit per group

  RuntimeStats stats_;
  std::vector<WindowSnapshot> snapshots_;

  // The timed phases of a window barrier, in barrier order; each mutating
  // barrier observes Reload and every other one Reset.
  enum class Phase : uint8_t { Fence, Deliver, Merge, Reload, Reset };
  static constexpr std::size_t kNumPhases = 5;
  // Observe the wall time since phase_t0_ as phase `p`; restart the clock.
  void lap(Phase p);
  std::chrono::steady_clock::time_point phase_t0_;

  // Telemetry handles (see docs/telemetry.md for the metric names).  The
  // packet hot path only touches plain stats_ members; deltas are mirrored
  // into these at window barriers, so instrumentation adds nothing per
  // packet on the demux side.
  struct Metrics {
    telemetry::Counter* packets_in = nullptr;
    telemetry::Counter* windows = nullptr;
    telemetry::Counter* ring_stalls = nullptr;
    telemetry::Counter* rule_updates = nullptr;
    telemetry::Counter* reports = nullptr;
    telemetry::Histogram* merge_us = nullptr;  // window merge duration
    std::array<telemetry::Histogram*, kNumPhases> barrier_phase_us{};
    telemetry::Counter* failovers = nullptr;
    telemetry::Counter* redistributed = nullptr;
    telemetry::Counter* abandoned = nullptr;
    telemetry::Gauge* live_shards = nullptr;
    telemetry::Counter* jit_packets = nullptr;     // compiled-path packets
    telemetry::Counter* jit_hash_lanes = nullptr;  // digests computed
    telemetry::Counter* installs_rejected = nullptr;
    telemetry::Counter* jit_recompiles = nullptr;
    telemetry::Counter* late_packets = nullptr;
    telemetry::Gauge* shard_groups = nullptr;
    telemetry::Counter* shard_visits = nullptr;
    // Per query with a pinned branch (set 0 again once none is pinned).
    std::map<std::string, telemetry::Gauge*> shard_pinned;
    std::vector<telemetry::Counter*> shard_packets;
    std::vector<telemetry::Gauge*> shard_occupancy;  // ring depth at barrier
  };
  Metrics metrics_;
  RuntimeStats flushed_;  // totals already mirrored into the registry

  // Failover state: flow-key hashes address a fixed set of num_shards
  // buckets; shard_map_ redirects each bucket to its current owner, so a
  // dead worker's whole key range moves to ONE successor (merging its
  // Add/Or state into a single replica keeps counts exact and distinct
  // suppression intact — splitting the range would double-count).
  std::vector<std::size_t> shard_map_;   // bucket -> live worker index
  std::vector<char> alive_;              // per worker
  std::vector<uint64_t> fences_posted_;  // fences enqueued per worker
  std::size_t live_count_ = 0;

  // Opened fresh at every start(), at the primary's window length.
  WindowClock clock_;
  bool started_ = false;
  bool at_barrier_ = false;   // quiesce guard: controller mutation allowed
  bool replicas_dirty_ = true;
};

}  // namespace newton
