// Bounded single-producer / single-consumer ring buffer: the demux->worker
// packet channel of the sharded runtime.
//
// The fast path is lock-free (a release/acquire pair on the two indices —
// the classic cached-index SPSC queue), amortized over bursts: one pair
// moves a whole burst, which the consumer reads in place from the slots
// (docs/runtime.md "Hot path").  When one side would spin for long
// it parks on a condition variable with a short timeout, so the runtime
// stays live and cheap on CPU-starved hosts (CI containers often pin us to
// a single core) without the latency cliffs of pure blocking queues.
//
// The release/acquire pair doubles as the runtime's quiesce fence: any
// plain-memory write the producer performs before a push is visible to the
// consumer after the matching peek, and vice versa — which is what makes
// it safe for the demux thread to rebuild a worker's pipeline replica
// between a fence acknowledgement and the next push.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace newton {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Enqueue up to n items; returns how many fit (0 when full or closed).
  // A partial push publishes a contiguous prefix of v.
  std::size_t try_push_bulk(const T* v, std::size_t n) {
    if (n == 0 || closed_.load(std::memory_order_acquire)) return 0;
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    std::size_t free = mask_ + 1 - static_cast<std::size_t>(t - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = mask_ + 1 - static_cast<std::size_t>(t - head_cache_);
      if (free == 0) return 0;
    }
    const std::size_t m = n < free ? n : free;
    for (std::size_t i = 0; i < m; ++i) buf_[(t + i) & mask_] = v[i];
    tail_.store(t + m, std::memory_order_release);
    return m;
  }

  // Up to max queued items, read in place from the ring's slots and NOT
  // consumed; empty when the ring is.  The span stops at the physical end
  // of the buffer, so a burst that wraps comes back in two calls.  The
  // slots stay untouched by the producer until consume(k), k <= size(),
  // retires them.  Consumer thread only.  The peek/consume split lets the
  // shard worker stop a burst at a control item (fence, crash poison) and
  // leave everything behind it in the ring — exactly the items the
  // failover path must be able to salvage.
  std::span<const T> peek(std::size_t max) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return {};  // empty
    }
    const std::size_t at = static_cast<std::size_t>(h & mask_);
    const std::size_t avail = static_cast<std::size_t>(tail_cache_ - h);
    return {buf_.data() + at, std::min({avail, max, mask_ + 1 - at})};
  }

  // Retire n items previously peeked (single release on the head index).
  void consume(std::size_t n) {
    if (n == 0) return;
    head_.store(head_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
    wake(producer_waiting_);
  }

  // Blocking peek: waits (spin, then park) until at least one item is
  // queued, then returns peek(max).
  std::span<const T> wait_peek(std::size_t max) {
    while (true) {
      for (int i = 0; i < kSpin; ++i) {
        const std::span<const T> s = peek(max);
        if (!s.empty()) return s;
        std::this_thread::yield();
      }
      park(consumer_waiting_, [this] { return can_pop(); });
    }
  }

  struct PushResult {
    uint64_t stalls = 0;  // failed attempts before the items fit
    bool ok = true;       // false: not everything was enqueued
  };

  // Blocking bulk push of the whole batch: the only blocking push.
  // Partial progress is fine (the batch lands as several bursts under
  // backpressure); the call only gives up when the ring closes (ok =
  // false; a consumer that exited must not strand its producer) or when
  // `timeout_ms` milliseconds pass with NO forward progress — a deadline
  // since the last accepted item, not since the call, so a
  // slowly-draining consumer never trips it.  timeout_ms = 0 means no
  // deadline.  `*pushed` always reports how many leading items were
  // enqueued.
  PushResult push_bulk_for(const T* v, std::size_t n, uint64_t timeout_ms,
                           std::size_t* pushed) {
    PushResult r;
    std::size_t done = 0;
    auto last_progress = std::chrono::steady_clock::now();
    while (done < n) {
      if (closed_.load(std::memory_order_acquire)) {
        r.ok = false;
        break;
      }
      std::size_t m = 0;
      for (int i = 0; i < kSpin; ++i) {
        m = try_push_bulk(v + done, n - done);
        if (m != 0) break;
        ++r.stalls;
        std::this_thread::yield();
      }
      if (m != 0) {
        done += m;
        wake(consumer_waiting_);
        if (timeout_ms != 0) last_progress = std::chrono::steady_clock::now();
        continue;
      }
      if (timeout_ms != 0 &&
          std::chrono::steady_clock::now() - last_progress >=
              std::chrono::milliseconds(timeout_ms)) {
        r.ok = false;
        break;
      }
      park(producer_waiting_, [this] { return can_push() || closed(); });
    }
    if (pushed != nullptr) *pushed = done;
    return r;
  }

  // Shut the ring: subsequent pushes fail fast; items already enqueued can
  // still be drained with peek/consume.  Either side may close (the runtime's
  // workers close on death so the demux detects them at the next push);
  // parked producers are woken promptly.
  void close() {
    {
      // Holding mu_ orders the store against a parked producer's re-check
      // (same protocol as wake()).
      std::lock_guard<std::mutex> lk(mu_);
      closed_.store(true, std::memory_order_seq_cst);
    }
    cv_.notify_all();
  }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t capacity() const { return mask_ + 1; }

  // Items currently enqueued, racy by nature (indices are read separately).
  // Telemetry samples this at window barriers as the shard-occupancy gauge.
  std::size_t size_approx() const {
    const uint64_t t = tail_.load(std::memory_order_acquire);
    const uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }

  // Producer side, for a closed ring: how many queued items satisfy
  // `pred`.  A consumer only reads slots, so a hung one is no hazard.
  template <typename Pred>
  std::size_t count_queued(Pred pred) const {
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    for (uint64_t i = head_.load(std::memory_order_acquire); i != t; ++i)
      n += pred(buf_[i & mask_]) ? 1 : 0;
    return n;
  }

  // Parks (either side) that slept out their full timeout rather than
  // being woken or finding the ring ready on the re-check.  A park that
  // misses a published item shows up here, whatever the scheduler does.
  uint64_t park_timeouts() const {
    return park_timeouts_.load(std::memory_order_relaxed);
  }

  // Test seam: invoked at the top of park(), i.e. exactly in the window
  // between the caller's last failed peek/try_push_bulk and the waiting-flag
  // publication.  Lets a regression test inject a push into that window
  // deterministically (tests/test_runtime.cpp ParkRecheck).
  void set_park_test_hook(std::function<void()> hook) {
    park_test_hook_ = std::move(hook);
  }

 private:
  bool can_pop() const {
    return head_.load(std::memory_order_relaxed) !=
           tail_.load(std::memory_order_acquire);
  }
  bool can_push() const {
    return tail_.load(std::memory_order_relaxed) -
               head_.load(std::memory_order_acquire) <=
           mask_;
  }

  // Publish the waiting flag, THEN re-check the ring before sleeping: an
  // item pushed between the caller's last failed attempt and the flag store
  // would otherwise always eat the full timeout (its wake() read the flag
  // as false).  The flag store is seq_cst so it cannot reorder past the
  // re-check; the wake side reads it seq_cst after its release-store of the
  // index.  A residual miss on weakly-ordered hardware is still bounded by
  // the park timeout, so no eventcount sequencing is needed.
  template <typename Ready>
  void park(std::atomic<bool>& flag, Ready ready) {
    if (park_test_hook_) park_test_hook_();
    std::unique_lock<std::mutex> lk(mu_);
    flag.store(true, std::memory_order_seq_cst);
    if (ready()) {
      flag.store(false, std::memory_order_relaxed);
      return;
    }
    // Holding mu_ from before the flag store to the wait means any wake()
    // that saw the flag blocks on mu_ until wait_for releases it — its
    // notify cannot slip into the gap.
    if (cv_.wait_for(lk, std::chrono::milliseconds(1)) ==
        std::cv_status::timeout)
      park_timeouts_.fetch_add(1, std::memory_order_relaxed);
    flag.store(false, std::memory_order_relaxed);
  }

  void wake(std::atomic<bool>& flag) {
    if (flag.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_.notify_all();
    }
  }

  static constexpr int kSpin = 64;

  std::vector<T> buf_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer index
  uint64_t tail_cache_ = 0;                    // consumer-private
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer index
  uint64_t head_cache_ = 0;                    // producer-private
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};
  std::atomic<uint64_t> park_timeouts_{0};
  std::function<void()> park_test_hook_;  // cold path only; see setter
};

}  // namespace newton
