// Generic runtime-reconfigurable match-action tables.
//
// Match-action table rules are the *runtime reconfigurable* component of a
// programmable data plane (§2.1) — the lever Newton uses to install, update
// and remove queries without reloading the P4 program.  Two table flavors
// cover everything Newton needs:
//
//   * TernaryTable<Action>: priority-ordered value/mask matching over a list
//     of 32-bit match words (newton_init's 5-tuple+flags dispatch, and R's
//     ternary match over the state result).
//   * ConfigTable<Config>:  exact match on a query id, holding one module
//     configuration per query (K/H/S module tables).
//
// Both enforce a capacity (the paper configures 256 rules per module) and
// count rule operations so the controller's latency model can price
// installs/removals.
//
// The lookup path is engineered for the sharded runtime's per-packet loop
// (docs/runtime.md "Hot path"): keys are passed as spans over caller-owned
// inline storage, results land in caller-provided scratch buffers, and the
// ternary table keeps its rules in a tuple-space index (Srinivasan et al.,
// "Packet classification using tuple space search"): rules are grouped by
// (arity, per-word mask vector), and each group stores its rules' masked
// words as flat rows.  A lookup masks the key once per group and either
// scans the group's rows or, for a large group, probes one hash — so its
// cost follows the number of distinct mask patterns, not the number of
// rules.  A fully-exact rule is just the all-ones pattern.  No heap
// allocation happens on any lookup.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

namespace newton {

// One ternary match word: (value, mask).  A word matches x iff
// (x & mask) == (value & mask).
struct MatchWord {
  uint32_t value = 0;
  uint32_t mask = 0;

  bool matches(uint32_t x) const { return (x & mask) == (value & mask); }
  static MatchWord exact(uint32_t v) { return {v, 0xffffffffu}; }
  static MatchWord wildcard() { return {0, 0}; }
};

// Longest ternary key the tables accept (newton_init uses 7 words: the
// 5-tuple, the TCP flags, and the at-ingress bit).  Fixed so rules and
// lookup scratch fit in inline storage — no per-packet vector.
inline constexpr std::size_t kMaxMatchWords = 8;

template <typename Action>
class TernaryTable {
 public:
  explicit TernaryTable(std::size_t capacity) : capacity_(capacity) {}

  // The tuple index stores slot positions into entries_, so the default
  // copy/move of every member is already deep and self-consistent.

  // Insert a rule; returns a handle for later removal.
  uint64_t insert(std::vector<MatchWord> key, int priority, Action action) {
    if (entries_.size() >= capacity_)
      throw std::runtime_error("TernaryTable: capacity exceeded");
    if (key.size() > kMaxMatchWords)
      throw std::runtime_error("TernaryTable: key exceeds kMaxMatchWords");
    Entry e;
    e.arity = static_cast<uint8_t>(key.size());
    std::copy(key.begin(), key.end(), e.key.begin());
    e.priority = priority;
    e.action = std::move(action);
    e.handle = next_handle_++;
    entries_.push_back(std::move(e));
    const Entry& added = entries_.back();
    // The appended slot is the largest: every tuple's rows stay sorted.
    add_row(tuple_of(added, /*create=*/true), added,
            static_cast<uint32_t>(entries_.size() - 1));
    ++rule_ops_;
    return added.handle;
  }

  bool remove(uint64_t handle) {
    // Handles grow with installation order, so entries_ is sorted by them.
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), handle,
        [](const Entry& e, uint64_t h) { return e.handle < h; });
    if (it == entries_.end() || it->handle != handle) return false;
    const auto slot = static_cast<uint32_t>(it - entries_.begin());
    const std::size_t ti = tuple_of(*it, /*create=*/false);
    drop_row(tuples_[ti], slot);
    if (tuples_[ti].rows.empty())
      tuples_.erase(tuples_.begin() + static_cast<std::ptrdiff_t>(ti));
    entries_.erase(it);
    // Every later entry shifted down one slot.
    for (Tuple& t : tuples_)
      for (std::size_t i = t.ncare; i < t.rows.size(); i += t.ncare + 1u)
        if (t.rows[i] > slot) --t.rows[i];
    ++rule_ops_;
    return true;
  }

  // Highest-priority matching entry (ties: earliest installed).
  const Action* lookup(std::span<const uint32_t> key) const {
    const Entry* best = nullptr;
    for_each_hit(key, [&](uint32_t s) {
      const Entry& e = entries_[s];
      if (best == nullptr || e.priority > best->priority ||
          (e.priority == best->priority && &e < best))
        best = &e;
    });
    return best ? &best->action : nullptr;
  }
  const Action* lookup(std::initializer_list<uint32_t> key) const {
    return lookup(std::span<const uint32_t>(key.begin(), key.size()));
  }

  // All matching entries, in installation order, written into the
  // caller-provided scratch buffer (capacity >= size() always suffices;
  // a smaller one keeps the earliest installed).  A physical TCAM yields
  // one result; callers that need the union (newton_init dispatching a
  // packet to every query watching its traffic class) conceptually install
  // the cross-product of overlapping entries with merged actions — this
  // walks that cross-product without materializing it, and without
  // allocating.
  std::size_t lookup_all(std::span<const uint32_t> key, const Action** out,
                         std::size_t cap) const {
    // Tuples yield their hits tuple by tuple, so each hit is insertion-
    // sorted into place.  entries_ is in installation order, so the action
    // addresses ascend with it.  A scanned tuple yields ascending slots,
    // so a hit usually lands at the end.
    std::size_t n = 0;
    const std::less<const Action*> before;
    for_each_hit(key, [&](uint32_t s) {
      const Action* a = &entries_[s].action;
      std::size_t j = n;
      while (j > 0 && before(a, out[j - 1])) --j;
      if (j >= cap) return;  // later than every hit a full buffer keeps
      for (std::size_t i = n < cap ? n++ : cap - 1; i > j; --i)
        out[i] = out[i - 1];
      out[j] = a;
    });
    return n;
  }

  // Allocating conveniences for tests and cold callers.
  std::vector<const Action*> lookup_all(std::span<const uint32_t> key) const {
    std::vector<const Action*> out(entries_.size());
    out.resize(lookup_all(key, out.data(), out.size()));
    return out;
  }
  std::vector<const Action*> lookup_all(
      std::initializer_list<uint32_t> key) const {
    return lookup_all(std::span<const uint32_t>(key.begin(), key.size()));
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  uint64_t rule_ops() const { return rule_ops_; }

 private:
  struct Entry {
    std::array<MatchWord, kMaxMatchWords> key{};  // [0, arity) used
    uint8_t arity = 0;
    int priority = 0;  // higher wins
    Action action{};
    uint64_t handle = 0;
  };

  // Every rule of one arity and one per-word mask vector.  A row keeps only
  // the words the masks care about, already masked, then the rule's slot in
  // entries_: rows are flat words, `ncare + 1` per rule, slots ascending.
  // A tuple of kHashRows or more rows (and at least one cared word) is also
  // hashed on those words, open addressing with linear probing, so one
  // probe sequence replaces the row scan.
  struct Tuple {
    uint8_t arity = 0;
    uint8_t ncare = 0;
    std::array<uint8_t, kMaxMatchWords> care{};    // cared word indices
    std::array<uint32_t, kMaxMatchWords> cmask{};  // their masks
    std::vector<uint32_t> rows;
    std::vector<uint32_t> buckets;  // row + 1, 0 = free; empty = scanned
  };

  // Rows a tuple needs before it is hashed.  A scanned row costs a compare
  // per cared word, a probe one hash and a bucket load: on one- and
  // two-word tuples the two break even at 2 rows and the probe is ahead
  // from 4 (3.5 vs 5.1 ns per lookup at 4 rows, 4.1 vs 8.2 at 8).
  static constexpr std::size_t kHashRows = 4;

  static uint64_t row_hash(const uint32_t* w, std::size_t n) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ w[i]) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return h;
  }

  static bool same(const uint32_t* row, const uint32_t* mk, std::size_t n) {
    for (std::size_t c = 0; c < n; ++c)
      if (row[c] != mk[c]) return false;
    return true;
  }

  // Calls fn(slot) for every entry matching `key`: per tuple, the key's
  // cared words are masked once, then compared against every row or
  // probed in the tuple's hash.
  template <typename Fn>
  void for_each_hit(std::span<const uint32_t> key, Fn&& fn) const {
    for (const Tuple& t : tuples_) {
      if (t.arity != key.size()) continue;
      const std::size_t nc = t.ncare;
      std::array<uint32_t, kMaxMatchWords> mk;
      for (std::size_t c = 0; c < nc; ++c) mk[c] = key[t.care[c]] & t.cmask[c];
      const uint32_t* rows = t.rows.data();
      if (t.buckets.empty()) {
        const uint32_t* end = rows + t.rows.size();
        for (const uint32_t* r = rows; r != end; r += nc + 1)
          if (same(r, mk.data(), nc)) fn(r[nc]);
      } else {
        const std::size_t m = t.buckets.size() - 1;
        for (std::size_t b = row_hash(mk.data(), nc) & m; t.buckets[b] != 0;
             b = (b + 1) & m) {
          const uint32_t* r = rows + (t.buckets[b] - 1) * (nc + 1);
          if (same(r, mk.data(), nc)) fn(r[nc]);
        }
      }
    }
  }

  // Index into tuples_ of the tuple `e` belongs to; with `create`, a new
  // one is appended when none matches.
  std::size_t tuple_of(const Entry& e, bool create) {
    Tuple want;
    want.arity = e.arity;
    for (std::size_t i = 0; i < e.arity; ++i) {
      if (e.key[i].mask == 0) continue;
      want.care[want.ncare] = static_cast<uint8_t>(i);
      want.cmask[want.ncare++] = e.key[i].mask;
    }
    for (std::size_t ti = 0; ti < tuples_.size(); ++ti) {
      const Tuple& t = tuples_[ti];
      if (t.arity == want.arity && t.care == want.care && t.cmask == want.cmask)
        return ti;
    }
    if (!create) throw std::logic_error("TernaryTable: entry without tuple");
    tuples_.push_back(std::move(want));
    return tuples_.size() - 1;
  }

  void add_row(std::size_t ti, const Entry& e, uint32_t slot) {
    Tuple& t = tuples_[ti];
    // MatchWord lets value bits sit outside the mask: store value & mask.
    for (std::size_t c = 0; c < t.ncare; ++c)
      t.rows.push_back(e.key[t.care[c]].value & t.cmask[c]);
    t.rows.push_back(slot);
    const std::size_t n = t.rows.size() / (t.ncare + 1u);
    if (!t.buckets.empty() && 2 * n <= t.buckets.size())
      place(t, n - 1);
    else if (t.ncare > 0 && n >= kHashRows)
      rehash(t, 4 * std::bit_ceil(n));  // load stays <= 1/2 until doubled
  }

  static std::size_t home(const Tuple& t, std::size_t row) {
    return row_hash(t.rows.data() + row * (t.ncare + 1u), t.ncare) &
           (t.buckets.size() - 1);
  }

  static void place(Tuple& t, std::size_t row) {
    const std::size_t m = t.buckets.size() - 1;
    std::size_t b = home(t, row);
    while (t.buckets[b] != 0) b = (b + 1) & m;
    t.buckets[b] = static_cast<uint32_t>(row + 1);
  }

  static void rehash(Tuple& t, std::size_t nbuckets) {
    t.buckets.assign(nbuckets, 0);
    const std::size_t n = t.rows.size() / (t.ncare + 1u);
    for (std::size_t r = 0; r < n; ++r) place(t, r);
  }

  // Erase the row holding `slot`.  A hashed tuple frees its bucket by
  // backward-shift deletion (no tombstones), then renumbers the buckets of
  // the rows after it.
  static void drop_row(Tuple& t, uint32_t slot) {
    const std::size_t stride = t.ncare + 1u;
    std::size_t row = 0;
    while (t.rows[row * stride + t.ncare] != slot) ++row;
    if (!t.buckets.empty()) {
      const std::size_t m = t.buckets.size() - 1;
      std::size_t hole = home(t, row);
      while (t.buckets[hole] != row + 1) hole = (hole + 1) & m;
      for (std::size_t b = (hole + 1) & m; t.buckets[b] != 0; b = (b + 1) & m) {
        // An entry may move back into the hole only if its home does not
        // lie cyclically in (hole, b].
        const std::size_t h = home(t, t.buckets[b] - 1);
        if (((b - h) & m) >= ((b - hole) & m)) {
          t.buckets[hole] = t.buckets[b];
          hole = b;
        }
      }
      t.buckets[hole] = 0;
      for (uint32_t& b : t.buckets)
        if (b > row + 1) --b;
    }
    const auto at = t.rows.begin() + static_cast<std::ptrdiff_t>(row * stride);
    t.rows.erase(at, at + static_cast<std::ptrdiff_t>(stride));
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;  // installation order (= handle order)
  uint64_t next_handle_ = 1;
  uint64_t rule_ops_ = 0;
  // The tuple-space index, maintained incrementally by insert/remove.
  std::vector<Tuple> tuples_;
};

// Exact-match table keyed by query id, one config per query: a flat rule
// vector behind a direct-indexed qid -> slot array (qids are dense and
// small, kMaxQueries), so a lookup is two dependent loads, slot then rule.
// Plain vectors throughout: the default copy and assignment are deep.
template <typename Config>
class ConfigTable {
 public:
  explicit ConfigTable(std::size_t capacity) : capacity_(capacity) {}

  void insert(uint16_t qid, Config cfg) {
    uint32_t s = slot(qid);
    if (s == kNone) {
      if (rules_.size() >= capacity_)
        throw std::runtime_error("ConfigTable: capacity exceeded");
      if (qid >= slots_.size()) slots_.resize(qid + 1u, kNone);
      s = slots_[qid] = static_cast<uint32_t>(rules_.size());
      rules_.push_back({qid, {}});
    }
    rules_[s].cfg = std::move(cfg);
    ++rule_ops_;
  }

  // The last rule moves into the freed slot.
  bool remove(uint16_t qid) {
    const uint32_t s = slot(qid);
    if (s == kNone) return false;
    if (s + 1u != rules_.size()) {
      rules_[s] = std::move(rules_.back());
      slots_[rules_[s].qid] = s;
    }
    rules_.pop_back();
    slots_[qid] = kNone;
    ++rule_ops_;
    return true;
  }

  const Config* lookup(uint16_t qid) const {
    const uint32_t s = slot(qid);
    return s == kNone ? nullptr : &rules_[s].cfg;
  }

  // Visit every installed rule in qid order.  Cold path: the chain
  // compiler (src/compile/) lowers installed configs through this.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t qid = 0; qid < slots_.size(); ++qid)
      if (slots_[qid] != kNone)
        fn(static_cast<uint16_t>(qid), rules_[slots_[qid]].cfg);
  }

  std::size_t size() const { return rules_.size(); }
  std::size_t capacity() const { return capacity_; }
  uint64_t rule_ops() const { return rule_ops_; }

 private:
  static constexpr uint32_t kNone = ~0u;

  struct Rule {
    uint16_t qid;
    Config cfg;
  };

  uint32_t slot(uint16_t qid) const {
    return qid < slots_.size() ? slots_[qid] : kNone;
  }

  std::size_t capacity_;
  std::vector<Rule> rules_;      // installed rules, in no particular order
  std::vector<uint32_t> slots_;  // qid -> index into rules_, kNone if absent
  uint64_t rule_ops_ = 0;
};

}  // namespace newton
