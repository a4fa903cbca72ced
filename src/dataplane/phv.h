// Packet header vector (PHV) carried through the pipeline.
//
// The compact module layout (§4.2) eliminates write-read dependencies by
// provisioning exactly TWO independent metadata sets — each composed of
// operation keys, a hash result, and a state result — plus one shared
// "global result" field that the result-process module R reads and updates
// to merge results across sets.  Reserving the second set and the global
// result is the PHV cost the paper pays for stage packing.
#pragma once

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>

#include "packet/fields.h"
#include "packet/packet.h"

namespace newton {

// Fixed-capacity vector in inline storage.  The PHV travels the packet hot
// path millions of times per second; keeping its members trivially copyable
// and allocation-free is what lets the sharded runtime reset and refill a
// PHV per packet without touching the heap (docs/runtime.md "Hot path").
template <typename T, std::size_t N>
class InlineVec {
 public:
  void push_back(T v) { items_[n_++] = v; }
  void clear() { n_ = 0; }
  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  T operator[](std::size_t i) const { return items_[i]; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + n_; }
  bool operator==(const InlineVec& o) const {
    return n_ == o.n_ && std::equal(begin(), end(), o.begin());
  }
  // Drop the items `drop` selects, keeping the rest in order.
  template <class Pred>
  void erase_if(Pred drop) {
    std::uint16_t w = 0;
    for (std::uint16_t i = 0; i < n_; ++i)
      if (!drop(items_[i])) items_[w++] = items_[i];
    n_ = w;
  }

 private:
  // Deliberately not value-initialized: only [0, n_) is ever exposed, and
  // zeroing the whole inline array would cost a 512-byte memset on every
  // PHV construction in the per-packet path.
  std::array<T, N> items_;
  std::uint16_t n_ = 0;
};

// One of the two independent metadata sets.
struct MetadataSet {
  // Operation keys: global fields after K's bit-mask (unselected = 0).
  std::array<uint32_t, kNumFields> keys{};
  uint32_t hash_result = 0;
  uint32_t state_result = 0;
};

inline constexpr std::size_t kNumMetadataSets = 2;
inline constexpr std::size_t kMaxQueries = 256;  // newton_init table size

struct Phv {
  Packet pkt;
  std::array<MetadataSet, kNumMetadataSets> sets{};
  uint32_t global_result = 0;

  // Which queries this packet executes (set by newton_init, cleared by R's
  // stop action).  In hardware this is per-query gateway metadata.
  std::bitset<kMaxQueries> active;
  // Activation order, for cheap iteration by module tables (mirror of
  // `active` at activation time; the bitset remains authoritative).  Inline
  // storage: the bitset guard in activate_query bounds it at kMaxQueries.
  InlineVec<uint16_t, kMaxQueries> active_list;

  // True if the packet entered the network at this switch (arrived on a
  // host-facing port) — matched by newton_init's ingress word.
  bool at_ingress_edge = true;

  bool query_active(uint16_t qid) const { return active.test(qid); }
  void stop_query(uint16_t qid) { active.reset(qid); }
  // Keep only the queries in `keep`, in activation order: a sharded-runtime
  // shard runs just the key groups that routed this packet to it.
  void restrict_to(const std::bitset<kMaxQueries>& keep) {
    active &= keep;
    active_list.erase_if([&](uint16_t q) { return !keep.test(q); });
  }
  void activate_query(uint16_t qid) {
    if (!active.test(qid)) {
      active.set(qid);
      active_list.push_back(qid);
    }
  }

  MetadataSet& set(std::size_t i) { return sets[i]; }
  const MetadataSet& set(std::size_t i) const { return sets[i]; }

  // Restore a reused PHV to freshly-constructed state (minus pkt, which the
  // caller overwrites next).  Cheaper than `*this = Phv{}`: the active
  // list's inline array need not be wiped — its count is the only live
  // state — so this touches ~130 bytes instead of the full PHV.
  void reset() {
    sets = {};
    global_result = 0;
    active.reset();
    active_list.clear();
    at_ingress_edge = true;
  }
};

}  // namespace newton
