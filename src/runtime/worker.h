// One shard worker of the sharded runtime: a thread owning a private deep
// clone of the primary switch's newton_init table and pipeline (tables +
// register banks) plus a private report buffer.
//
// Ownership / synchronization contract:
//   * Only the worker thread touches the replica while packets are in
//     flight.
//   * The demux thread may read or rebuild the replica (merge banks, drain
//     reports, reload after a rule update) ONLY between observing a fence
//     acknowledgement and pushing the next queue item; the ring's
//     release/acquire pairs order those accesses (see spsc_ring.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "compile/executor.h"
#include "core/modules.h"
#include "core/report.h"
#include "dataplane/pipeline.h"
#include "runtime/spsc_ring.h"

namespace newton {

// Per-shard execution totals, refreshed at window barriers (and exported
// through telemetry as the newton_runtime_shard_* series).
struct WorkerStats {
  uint64_t packets = 0;   // packets this worker executed
  uint64_t reports = 0;   // reports it emitted (drained at barriers)
  uint64_t busy_ns = 0;   // thread CPU time consumed so far
  // Of `packets`, how many ran through the compiled chain executor
  // (src/compile/) rather than the interpreter, and of those how many ran
  // in single-query runs.  The second keeps its old "fused" name only
  // because the benchmark in perfbench/ still reads it.
  uint64_t jit_packets = 0;
  uint64_t jit_fused_packets = 0;
  // Digest lanes the compiled executors hashed in batches, mirrored from
  // CompiledPipeline::hash_lanes() at window fences.
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
  Packet pkt;
};

class ShardWorker {
 public:
  // `burst` is the drain batch size: the worker pulls up to this many ring
  // items per handshake and executes packet runs through the pipeline
  // stage-major (Pipeline::process_burst).  1 reproduces the item-at-a-time
  // path exactly.
  ShardWorker(std::size_t index, std::size_t queue_capacity,
              std::size_t burst = 64);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  // Replace the replica with a fresh deep copy of `pipe` + `init` (the state
  // banks are copied into the outgoing replica's bank storage), bind
  // the cloned R modules to this worker's private report buffer, and lower
  // the installed chains into compiled executors (unless jit was turned
  // off).  `build_jit` = false defers the lowering — the replica runs the
  // interpreter until relower_chains() — so the runtime can coalesce
  // recompiles across back-to-back rule updates (a stale CompiledPipeline
  // must NEVER survive a reload: its ops hold pointers into the replaced
  // replica's modules).  Demux thread only; worker must be quiesced (not
  // yet started, or fenced).
  void load_replica(const Pipeline& pipe, const InitModule& init,
                    bool build_jit = true);

  // Lower the current replica's chains into compiled executors (the
  // deferred half of load_replica(..., false)).  Demux thread, quiesced.
  void relower_chains();

  // Executor options for subsequent replica loads: chain compilation
  // on/off (RuntimeOptions::jit / NEWTON_NO_JIT).
  void set_exec_options(const compile::ExecOptions& opts) {
    exec_opts_ = opts;
  }

  // Compiled-chain coverage of the current replica (demux thread, worker
  // quiesced) — feeds the runtime's per-query compiled/interpreted gauge.
  const compile::CompiledPipeline& jit() const { return jit_; }

  void start();  // spawn the thread (idempotent)
  void join();   // wait for the thread after a Stop token

  SpscRing<WorkItem>& ring() { return ring_; }

  // Enqueue one item.  `ok = false` means the ring is closed — the worker
  // died (crashed or was failed over); nothing was enqueued.
  SpscRing<WorkItem>::PushResult post(const WorkItem& item) {
    return ring_.push(item);
  }

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
  RegisterArray& bank(std::size_t stage);
  bool has_bank(std::size_t stage) const;
  void reset_banks();  // zero every replica register bank (window rollover)
  // Fold the replica's packet/stage/rule-hit deltas into the global
  // registry (the runtime calls this at every window barrier).
  void publish_telemetry() {
    pipeline_.publish_telemetry();
    if (init_) init_->publish_telemetry();
  }
  const WorkerStats& stats() const { return stats_; }

  std::size_t index() const { return index_; }

 private:
  void run();
  void process_batch(const WorkItem* items, std::size_t n);
  void sync_jit_stats();  // mirror executor counters (fence/exit path)

  std::size_t index_;
  std::size_t burst_;
  SpscRing<WorkItem> ring_;
  Pipeline pipeline_{0};
  compile::CompiledPipeline jit_;
  compile::ExecOptions exec_opts_;
  std::shared_ptr<InitModule> init_;
  std::vector<SModule*> s_by_stage_;  // typed views into the replica
  std::vector<RModule*> r_mods_;
  // Reusable drain/execute buffers, sized to burst_ once at start: the
  // steady-state loop allocates nothing (docs/runtime.md "Hot path").
  std::vector<WorkItem> batch_;
  std::vector<Phv> phvs_;
  ReportBuffer reports_;
  WorkerStats stats_;
  std::atomic<uint64_t> fences_seen_{0};
  std::atomic<uint64_t> heartbeat_{0};
  std::atomic<bool> stall_release_{false};  // lets a Stall'd thread exit
  std::thread thread_;
  bool started_ = false;
};

}  // namespace newton
