// One shard worker of the sharded runtime: a thread owning a private
// replica of the primary switch (its module layout, built once, with its
// own rule tables, newton_init table and register banks) plus a private
// report buffer.  A replica load copies the primary's rules in place.
//
// Ownership / synchronization contract:
//   * Only the worker thread touches the replica while packets are in
//     flight.
//   * The demux thread may read or reload the replica (merge banks, drain
//     reports, reload after a rule update) ONLY between observing a fence
//     acknowledgement and pushing the next queue item; the ring's
//     release/acquire pairs order those accesses (see spsc_ring.h).
#pragma once

#include <atomic>
#include <bitset>
#include <cstdint>
#include <thread>
#include <vector>

#include "compile/executor.h"
#include "core/layout.h"
#include "core/newton_switch.h"
#include "core/report.h"
#include "dataplane/pipeline.h"
#include "runtime/spsc_ring.h"

namespace newton {

// Per-shard execution totals, refreshed at window barriers (and exported
// through telemetry as the newton_runtime_shard_* series).
struct WorkerStats {
  uint64_t packets = 0;   // packet visits this worker executed
  uint64_t reports = 0;   // reports it emitted (drained at barriers)
  uint64_t busy_ns = 0;   // thread CPU time consumed so far
  // Of `packets`, how many ran through the compiled chain executor
  // (src/compile/): all of them with the jit on, none with it off.  And of
  // those, how many ran in single-query runs; that one keeps its old
  // "fused" name only because the benchmark in perfbench/ still reads it.
  uint64_t jit_packets = 0;
  uint64_t jit_fused_packets = 0;
  // Digests the compiled executors computed (one per live lane of an
  // HHash op), mirrored from CompiledPipeline::hash_lanes() at window
  // fences.
  uint64_t jit_hash_lanes = 0;
  // Always 0.  They counted hash-CSE folds and state-bank prefetch hints,
  // both since removed from the executors; kept only because the benchmark
  // in perfbench/ still reads them.
  uint64_t jit_hash_cse_lanes = 0;
  uint64_t jit_prefetch_issued = 0;
};

// One demux->worker queue item: a packet, a window fence, a stop token, or
// a fault-injection poison (Kill: the thread closes its ring and exits
// without acking anything further — a simulated crash at a deterministic
// point in the item stream; Stall: the thread stops consuming and freezes
// its heartbeat until released — a simulated hang).
struct WorkItem {
  enum class Kind : uint8_t { Packet, Fence, Stop, Kill, Stall };
  Kind kind = Kind::Packet;
  // Packet: the key groups (bit g = group g) that routed this visit here;
  // the worker runs only their branches, and only the visit carrying group
  // 0 counts the packet in telemetry.  Sits in the padding before `pkt`.
  uint32_t groups = 0;
  Packet pkt;
};

class ShardWorker {
 public:
  // Builds the replica's layout as `primary` built its own (same id, stage
  // count and bank size), reporting into this worker's buffer; every load
  // copies `primary`'s rules, so it must outlive the worker.  `burst` is
  // the drain batch size: the worker pulls up to this many ring items per
  // handshake and executes packet runs through the pipeline stage-major
  // (Pipeline::process_burst).  1 reproduces the item-at-a-time path
  // exactly.  `jit` (RuntimeOptions::jit) selects the one tier every packet
  // runs on: the compiled chain executors, or the interpreter.
  ShardWorker(const NewtonSwitch& primary, std::size_t index,
              std::size_t queue_capacity, std::size_t burst = 64,
              bool jit = true);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  // Zero the banks, copy the primary's K/H/S/R and newton_init rule tables
  // into the replica's modules at the same (stage, slot), capture the
  // primary's allocated state segments, and, with the jit on, lower the
  // installed chains into compiled executors again (the rules changed; the
  // module addresses the ops capture did not).  `group_qids[g]` is key
  // group g's qid set: a visit runs the union over its WorkItem::groups.
  // Demux thread only; worker must be quiesced (not yet started, or
  // fenced).
  void load_replica(std::vector<std::bitset<kMaxQueries>> group_qids);

  void start();  // spawn the thread (idempotent)
  void join();   // wait for the thread after a Stop token

  SpscRing<WorkItem>& ring() { return ring_; }

  // The one demux push path (packets, control items, failover backlog):
  // enqueue items in order under the watchdog deadline `stall_ms` (0 =
  // none), retrying while the heartbeat advances.  Returns how many landed;
  // fewer than n means the worker is dead or hung.  Failed attempts
  // (backpressure) accumulate into `stalls`.
  std::size_t post(const WorkItem* items, std::size_t n, uint64_t stall_ms,
                   uint64_t& stalls);

  // Block (spin+yield) until the worker acknowledged `seq` fences total.
  // Returns false if the worker died (ring closed without the ack) or made
  // no progress — heartbeat frozen with the fence outstanding — for
  // `stall_ms` milliseconds; stall_ms = 0 disables the progress deadline.
  bool wait_fence_for(uint64_t seq, uint64_t stall_ms) const;

  // Items processed since start (packets + fences): the watchdog's
  // liveness signal.  A healthy-but-slow worker keeps advancing it; a dead
  // or hung one freezes.
  uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_acquire);
  }
  // The worker closed its ring (crashed, failed over, or was stalled out).
  bool dead() const { return ring_.closed(); }

  // --- quiesced access (demux thread, after wait_fence) ---
  ReportBuffer& reports() { return reports_; }
  RegisterArray& bank(std::size_t st) { return inst_.s.at(st)->registers(); }
  const RegisterArray& bank(std::size_t stage) const {
    return inst_.s.at(stage)->registers();
  }
  // The primary's allocated segments as of the last load_replica.
  const std::vector<NewtonSwitch::StateSegment>& segments() const {
    return segments_;
  }
  // The replica's modules, as NewtonSwitch::modules()/init_table().
  const ModuleInstances& modules() const { return inst_; }
  const InitModule& init_table() const { return init_; }
  // Window rollover: zero the segments captured at load, which leaves every
  // replica bank all-zero (nothing outside them is ever written).
  void reset_banks();
  // Fold the replica's packet/stage/rule-hit deltas into the global
  // registry (the runtime calls this at every window barrier).
  void publish_telemetry() {
    pipeline_.publish_telemetry();
    init_.publish_telemetry();
  }
  const WorkerStats& stats() const { return stats_; }

  std::size_t index() const { return index_; }

 private:
  void run();
  void process_batch(const WorkItem* items, std::size_t n);
  // Several key groups: newton_init for each visit, then only the branches
  // of the groups that routed it here stay active; the visit carrying
  // group 0 counts the packet.  Returns the visits that did not count.
  std::size_t activate_groups(const WorkItem* items, std::size_t n);
  void sync_jit_stats();  // mirror executor counters (fence/exit path)

  const NewtonSwitch& primary_;
  std::size_t index_;
  std::size_t burst_;
  SpscRing<WorkItem> ring_;
  // Declared before the layout: the R modules report into it.
  ReportBuffer reports_;
  Pipeline pipeline_;
  ModuleInstances inst_;  // typed views into pipeline_, fixed for life
  InitModule init_;
  compile::CompiledPipeline jit_;
  compile::ExecOptions exec_opts_;  // fixed at construction
  std::vector<NewtonSwitch::StateSegment> segments_;  // captured at load
  // Reusable PHV buffer, sized to burst_ once at construction; bursts are
  // read in place from the ring, so the steady-state loop allocates
  // nothing (docs/runtime.md "Hot path").
  std::vector<Phv> phvs_;
  WorkerStats stats_;
  std::atomic<uint64_t> fences_seen_{0};
  std::atomic<uint64_t> heartbeat_{0};
  std::atomic<bool> stall_release_{false};  // lets a Stall'd thread exit
  std::vector<std::bitset<kMaxQueries>> group_qids_;  // set at load
  uint32_t all_groups_ = 1;  // a visit with every group runs unfiltered
  std::thread thread_;
  bool started_ = false;
  bool loaded_ = false;  // start() refuses a worker with no rules loaded
};

}  // namespace newton
