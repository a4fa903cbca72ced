#include "runtime/worker.h"

#include <chrono>
#include <ctime>
#include <stdexcept>

namespace newton {

namespace {

// Per-thread CPU time: the worker's true work, immune to the scheduling
// noise of oversubscribed hosts (the bench derives its critical-path
// throughput model from this).
uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
#endif
  return 0;
}

// A deep copy of `src` like Pipeline::clone(), except that each state bank
// is copied into the bank `old` holds at the same stage and slot, when the
// sizes match, instead of into fresh memory.  A replica reload then keeps
// its banks (192 KB each, one per stage) instead of freeing and allocating
// them again at every mutation barrier; how much of that memory the
// allocator hands back to the kernel, only to fault it in again, otherwise
// depends on whatever else happens to sit in the heap.
Pipeline copy_reusing_banks(const Pipeline& src, Pipeline& old) {
  Pipeline out(src.num_stages());
  for (std::size_t i = 0; i < src.num_stages(); ++i) {
    const auto& from = src.stage(i).tables();
    const auto* prev =
        i < old.num_stages() ? &old.stage(i).tables() : nullptr;
    for (std::size_t j = 0; j < from.size(); ++j) {
      std::shared_ptr<TableProgram> t;
      const auto* s = dynamic_cast<const SModule*>(from[j].get());
      auto* into = prev != nullptr && j < prev->size()
                       ? dynamic_cast<SModule*>((*prev)[j].get())
                       : nullptr;
      if (s != nullptr && into != nullptr &&
          s->registers().size() == into->registers().size()) {
        *into = *s;  // copy-assignment keeps the bank's storage
        t = (*prev)[j];
      } else {
        t = from[j]->clone();
      }
      t->reset_telemetry();
      out.stage(i).add(std::move(t));
    }
  }
  return out;
}

}  // namespace

ShardWorker::ShardWorker(std::size_t index, std::size_t queue_capacity,
                         std::size_t burst)
    : index_(index), burst_(burst == 0 ? 1 : burst), ring_(queue_capacity) {
  batch_.resize(burst_);
  phvs_.resize(burst_);
}

ShardWorker::~ShardWorker() {
  if (thread_.joinable()) {
    // Release a Stall'd thread first; the Stop push fails harmlessly on a
    // closed ring (dead worker), whose thread has already returned.
    stall_release_.store(true, std::memory_order_release);
    ring_.push({WorkItem::Kind::Stop, {}});
    thread_.join();
  }
}

void ShardWorker::load_replica(const Pipeline& pipe, const InitModule& init,
                               bool build_jit) {
  pipeline_ = copy_reusing_banks(pipe, pipeline_);
  auto cloned = std::dynamic_pointer_cast<InitModule>(init.clone());
  if (!cloned)
    throw std::logic_error("ShardWorker: init clone has unexpected type");
  cloned->reset_telemetry();  // this replica publishes only its own hits
  init_ = std::move(cloned);

  s_by_stage_.assign(pipeline_.num_stages(), nullptr);
  r_mods_.clear();
  for (std::size_t i = 0; i < pipeline_.num_stages(); ++i) {
    for (const auto& t : pipeline_.stage(i).tables()) {
      if (auto* s = dynamic_cast<SModule*>(t.get())) s_by_stage_[i] = s;
      if (auto* r = dynamic_cast<RModule*>(t.get())) {
        r->set_sink(&reports_);
        r_mods_.push_back(r);
      }
    }
  }
  // Lower the freshly-loaded chains AFTER the sink rebinding above: the
  // compiled R ops capture the sink pointers as constants.  Under churn the
  // runtime defers the lowering (build_jit = false): the replica runs the
  // interpreter — byte-identical — until the install storm goes quiet, then
  // one relower_chains() covers the whole batch of updates.
  compile::ExecOptions opts = exec_opts_;
  opts.enabled = exec_opts_.enabled && build_jit;
  jit_.build(pipeline_, burst_, opts);
}

void ShardWorker::relower_chains() {
  jit_.build(pipeline_, burst_, exec_opts_);
}

void ShardWorker::sync_jit_stats() {
  stats_.jit_hash_lanes = jit_.hash_lanes();
}

void ShardWorker::start() {
  if (started_) return;
  if (!init_)
    throw std::logic_error("ShardWorker: start before load_replica");
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void ShardWorker::join() {
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

bool ShardWorker::wait_fence_for(uint64_t seq, uint64_t stall_ms) const {
  uint64_t last_hb = heartbeat();
  auto last_change = std::chrono::steady_clock::now();
  while (fences_seen_.load(std::memory_order_acquire) < seq) {
    if (ring_.closed())  // died without acking
      return fences_seen_.load(std::memory_order_acquire) >= seq;
    if (stall_ms != 0) {
      const uint64_t hb = heartbeat();
      const auto now = std::chrono::steady_clock::now();
      if (hb != last_hb) {
        last_hb = hb;
        last_change = now;
      } else if (now - last_change >= std::chrono::milliseconds(stall_ms)) {
        return false;  // no progress with the fence outstanding
      }
    }
    std::this_thread::yield();
  }
  return true;
}

RegisterArray& ShardWorker::bank(std::size_t stage) {
  SModule* s = s_by_stage_.at(stage);
  if (!s) throw std::out_of_range("ShardWorker::bank: stage has no S module");
  return s->registers();
}

bool ShardWorker::has_bank(std::size_t stage) const {
  return stage < s_by_stage_.size() && s_by_stage_[stage] != nullptr;
}

void ShardWorker::reset_banks() {
  for (SModule* s : s_by_stage_)
    if (s) s->registers().reset();
}

void ShardWorker::process_batch(const WorkItem* items, std::size_t n) {
  // Mirrors the plain-path NewtonSwitch::process (no CQE slices here);
  // window rollover is the runtime's job, signalled by fences, so the
  // worker never resets state on its own.  PHVs are reused from a
  // preallocated buffer and every PHV member lives in inline storage, so
  // the steady-state loop performs no heap allocation.
  for (std::size_t i = 0; i < n; ++i) {
    Phv& phv = phvs_[i];
    phv.reset();
    phv.pkt = items[i].pkt;
  }
  init_->execute_burst(phvs_.data(), n);
  if (!jit_.enabled()) {
    pipeline_.process_burst(phvs_.data(), n);
    stats_.packets += n;
    return;
  }
  // Partition the burst into maximal runs the compiled executor can take
  // whole — every active query compiled AND the same active set across the
  // run (the merged op program is computed once per run) — and hand the
  // rest to the interpreter.  Run boundaries preserve burst order, so
  // per-register op order (hence all results) stays byte-identical to a
  // pure interpreter burst.
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    if (jit_.covers(phvs_[i])) {
      while (j < n && jit_.covers(phvs_[j]) &&
             phvs_[j].active == phvs_[i].active)
        ++j;
      const bool single = jit_.execute_run(phvs_.data() + i, j - i);
      pipeline_.note_compiled_packets(j - i);
      stats_.jit_packets += j - i;
      if (single) stats_.jit_fused_packets += j - i;
    } else {
      while (j < n && !jit_.covers(phvs_[j])) ++j;
      pipeline_.process_burst(phvs_.data() + i, j - i);
    }
    i = j;
  }
  stats_.packets += n;
}

void ShardWorker::run() {
  while (true) {
    // Drain up to a burst in one index handshake, but only consume through
    // the first control item: anything queued behind a fence or a crash
    // poison must stay in the ring (the demux redistributes it at
    // failover, and nothing follows a fence until the barrier completes).
    const std::size_t n = ring_.wait_peek_bulk(batch_.data(), burst_);
    std::size_t npkts = 0;
    while (npkts < n && batch_[npkts].kind == WorkItem::Kind::Packet) ++npkts;
    if (npkts > 0) process_batch(batch_.data(), npkts);
    const bool had_control = npkts < n;
    const WorkItem::Kind k =
        had_control ? batch_[npkts].kind : WorkItem::Kind::Packet;
    ring_.consume(npkts + (had_control ? 1 : 0));
    heartbeat_.fetch_add(1, std::memory_order_release);
    if (!had_control) continue;
    if (k == WorkItem::Kind::Stop) break;
    if (k == WorkItem::Kind::Kill) {
      // Simulated crash: close the ring (the demux's next push fails fast
      // and triggers failover) and vanish without acking anything.  Items
      // queued behind the poison stay in the ring for redistribution; the
      // replica is left intact for the demux to salvage after join().
      stats_.busy_ns = thread_cpu_ns();
      sync_jit_stats();
      ring_.close();
      return;
    }
    if (k == WorkItem::Kind::Stall) {
      // Simulated hang: stop consuming, freeze the heartbeat.  Only the
      // destructor releases us (the watchdog gave this thread up — it must
      // not touch the replica again before exiting).
      while (!stall_release_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      return;
    }
    // Fence: the demux drains (and clears) the buffer right after this, so
    // the running total accumulates exactly once per window.
    stats_.reports += reports_.size();
    stats_.busy_ns = thread_cpu_ns();
    sync_jit_stats();
    // Release: every replica write above happens-before the demux's
    // acquire in wait_fence_for.
    fences_seen_.fetch_add(1, std::memory_order_release);
  }
  stats_.busy_ns = thread_cpu_ns();
  sync_jit_stats();
}

}  // namespace newton
