// The one place that decides windows (docs/runtime.md "Windows").
// Stateful primitives reset once per window (§6); the switch, the sharded
// runtime's demux, every fleet hop, the differential reference and
// schedulers and the benches all roll through this header.
//
//   * window_of(ts, window_ns) = ts / window_ns; window_ns == 0 means the
//     whole stream is one window.
//   * A clock opens window 0 at construction, so a stream that starts in
//     window 5 still closes window 0 first.
//   * A packet stamped past the open window rolls the clock: the owner
//     closes the open window, then open()s the packet's.
//   * A packet stamped before the open window is late: it never rolls the
//     clock; the owner folds it into the open window, clamping the engine's
//     copy of its timestamp to start_ns(), so its reports and the window
//     snapshot name the window that counted it.
#pragma once

#include <cstdint>
#include <limits>

namespace newton {

// Query::window_ns's default: the paper's 100 ms epoch.
inline constexpr uint64_t kDefaultWindowNs = 100'000'000;

constexpr uint64_t window_of(uint64_t ts_ns, uint64_t window_ns) {
  return window_ns == 0 ? 0 : ts_ns / window_ns;
}

class WindowClock {
 public:
  explicit WindowClock(uint64_t window_ns = kDefaultWindowNs)
      : window_ns_(window_ns) {
    open(0);
  }

  uint64_t window_ns() const { return window_ns_; }
  uint64_t window() const { return window_; }     // index of the open window
  uint64_t start_ns() const { return start_ns_; }  // its first timestamp

  // Two compares per packet, no division.
  bool rolls(uint64_t ts_ns) const { return ts_ns >= next_ns_; }
  bool late(uint64_t ts_ns) const { return ts_ns < start_ns_; }

  // Open the window holding `ts_ns`.
  void open(uint64_t ts_ns) {
    window_ = window_of(ts_ns, window_ns_);
    start_ns_ = window_ * window_ns_;
    constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
    next_ns_ = window_ns_ == 0 || start_ns_ > kNever - window_ns_
                   ? kNever
                   : start_ns_ + window_ns_;
  }

 private:
  uint64_t window_ns_;
  uint64_t window_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t next_ns_ = 0;
};

}  // namespace newton
