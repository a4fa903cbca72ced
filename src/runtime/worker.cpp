#include "runtime/worker.h"

#include <bit>
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

// Registers per state bank of a compact layout (every stage's are equal).
std::size_t bank_registers(const ModuleInstances& m) {
  return m.s.empty() ? 0 : m.s[0]->registers().size();
}

}  // namespace

ShardWorker::ShardWorker(const NewtonSwitch& primary, std::size_t index,
                         std::size_t queue_capacity, std::size_t burst,
                         bool jit)
    : primary_(primary),
      index_(index),
      burst_(burst == 0 ? 1 : burst),
      ring_(queue_capacity),
      pipeline_(primary.num_stages()),
      inst_(build_compact_layout(pipeline_, &reports_, primary.id(),
                                 bank_registers(primary.modules()))),
      exec_opts_{jit} {
  phvs_.resize(burst_);
}

ShardWorker::~ShardWorker() {
  if (thread_.joinable()) {
    // Release a Stall'd thread first; the Stop push fails harmlessly on a
    // closed ring (dead worker), whose thread has already returned.
    stall_release_.store(true, std::memory_order_release);
    const WorkItem stop{WorkItem::Kind::Stop, 0, {}};
    ring_.push_bulk_for(&stop, 1, /*timeout_ms=*/0, nullptr);
    thread_.join();
  }
}

void ShardWorker::load_replica(
    std::vector<std::bitset<kMaxQueries>> group_qids) {
  const ModuleInstances& p = primary_.modules();
  reset_banks();  // the outgoing segments: every bank is all-zero again
  group_qids_ = std::move(group_qids);
  all_groups_ = group_qids_.size() >= 32
                    ? ~0u
                    : (1u << group_qids_.size()) - 1u;
  for (std::size_t st = 0; st < p.k.size(); ++st) {
    inst_.k[st]->table() = p.k[st]->table();
    inst_.h[st]->table() = p.h[st]->table();
    inst_.s[st]->table() = p.s[st]->table();
    inst_.r[st]->table() = p.r[st]->table();
  }
  init_.table() = primary_.init_table().table();
  segments_ = primary_.state_segments();
  loaded_ = true;
  jit_.build(pipeline_, burst_, exec_opts_);
}

void ShardWorker::sync_jit_stats() {
  stats_.jit_hash_lanes = jit_.hash_lanes();
  stats_.jit_plans = jit_.plans();
  stats_.jit_plan_fallback_runs = jit_.plan_fallback_runs();
}

void ShardWorker::start() {
  if (started_) return;
  if (!loaded_)
    throw std::logic_error("ShardWorker: start before load_replica");
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void ShardWorker::join() {
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

std::size_t ShardWorker::post(const WorkItem* items, std::size_t n,
                              uint64_t stall_ms, uint64_t& stalls) {
  std::size_t done = 0;
  while (done < n) {
    const uint64_t hb = heartbeat();
    std::size_t pushed = 0;
    const auto r = ring_.push_bulk_for(items + done, n - done, stall_ms,
                                       &pushed);
    done += pushed;
    stalls += r.stalls;
    // Gave up: ring closed (crash), or no progress by the deadline — retry
    // if the heartbeat advanced (slow but live), else it is a hang.
    if (r.ok || dead() || heartbeat() == hb) break;
  }
  return done;
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

void ShardWorker::reset_banks() {
  NewtonSwitch::reset_segments(inst_.s, segments_);
}

void ShardWorker::process_batch(const WorkItem* items, std::size_t n) {
  // Mirrors the plain-path NewtonSwitch::process (no CQE slices here);
  // window rollover is the runtime's job, signalled by fences, so the
  // worker never resets state on its own.  Packets load straight from the
  // ring slots into PHVs reused from a preallocated buffer; every PHV
  // member lives in inline storage, so the loop performs no heap allocation.
  for (std::size_t i = 0; i < n; ++i) {
    Phv& phv = phvs_[i];
    phv.reset();
    phv.pkt = items[i].pkt;
  }
  std::size_t uncounted = 0;
  if (group_qids_.size() > 1)
    uncounted = activate_groups(items, n);
  else
    init_.execute_burst(phvs_.data(), n);
  // Partition the burst into maximal runs the compiled executor can take
  // whole (compile::run_length: one ordered activation list per run).
  // With the jit off nothing is covered, so the whole burst is one
  // interpreter run.  Run boundaries preserve burst order, so per-register
  // op order (hence all results) stays byte-identical to a pure
  // interpreter burst.
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    if (jit_.covers(phvs_[i])) {
      j = i + compile::run_length(phvs_.data() + i, n - i);
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
  if (uncounted != 0) pipeline_.uncount_packets(uncounted);
  stats_.packets += n;
}

std::size_t ShardWorker::activate_groups(const WorkItem* items,
                                         std::size_t n) {
  std::size_t uncounted = 0;
  uint64_t& init_hits = *init_.hits_cell();
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t g = items[i].groups;
    const uint64_t hits = init_hits;
    init_.execute(phvs_[i]);
    if ((g & 1u) == 0) {
      init_hits = hits;  // the visit carrying group 0 counts this packet
      ++uncounted;
    }
    if (g == all_groups_) continue;
    std::bitset<kMaxQueries> keep;
    for (uint32_t m = g; m != 0; m &= m - 1)
      keep |= group_qids_[static_cast<std::size_t>(std::countr_zero(m))];
    phvs_[i].restrict_to(keep);
  }
  return uncounted;
}

void ShardWorker::run() {
  while (true) {
    // Read up to a burst in place in one index handshake, but only consume
    // through the first control item: anything queued behind a fence or a
    // crash poison must stay in the ring (the demux redistributes it at
    // failover, and nothing follows a fence until the barrier completes).
    const std::span<const WorkItem> items = ring_.wait_peek(burst_);
    const std::size_t n = items.size();  // the ring's slots, read in place
    std::size_t npkts = 0;
    while (npkts < n && items[npkts].kind == WorkItem::Kind::Packet) ++npkts;
    if (npkts > 0) process_batch(items.data(), npkts);
    const bool had_control = npkts < n;
    const WorkItem::Kind k =
        had_control ? items[npkts].kind : WorkItem::Kind::Packet;
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
