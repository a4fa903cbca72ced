// Differential tests of TernaryTable's tuple-space index (rules grouped by
// arity and mask vector, each group's masked words stored as flat rows,
// large groups hashed; removal by handle) against a naive priority-scan
// reference: randomized insert/remove/lookup/lookup_all operations must
// agree exactly, including the "earliest installed wins" priority
// tie-break and rule_ops counts.  The populations cover small mixed tuples,
// value bits outside the mask, one hashed 7-word newton_init-shaped tuple
// under churn, and copies (what InitModule::clone takes) mutated apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "dataplane/match_table.h"

namespace newton {
namespace {

// The pre-index semantics, kept verbatim as the oracle: a flat list in
// installation order, linear scans everywhere.
class ReferenceTable {
 public:
  struct Entry {
    std::vector<MatchWord> key;
    int priority = 0;
    int action = 0;
    uint64_t handle = 0;
  };

  explicit ReferenceTable(std::size_t capacity) : capacity_(capacity) {}

  uint64_t insert(std::vector<MatchWord> key, int priority, int action) {
    if (entries_.size() >= capacity_) throw std::runtime_error("capacity");
    const uint64_t h = next_handle_++;
    entries_.push_back({std::move(key), priority, action, h});
    ++rule_ops_;
    return h;
  }

  bool remove(uint64_t handle) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->handle == handle) {
        entries_.erase(it);
        ++rule_ops_;
        return true;
      }
    }
    return false;
  }

  const int* lookup(const std::vector<uint32_t>& key) const {
    const Entry* best = nullptr;
    for (const Entry& e : entries_) {
      if (matches(e, key) && (best == nullptr || e.priority > best->priority))
        best = &e;
    }
    return best ? &best->action : nullptr;
  }

  std::vector<int> lookup_all(const std::vector<uint32_t>& key) const {
    std::vector<int> out;
    for (const Entry& e : entries_)
      if (matches(e, key)) out.push_back(e.action);
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  uint64_t rule_ops() const { return rule_ops_; }

 private:
  static bool matches(const Entry& e, const std::vector<uint32_t>& key) {
    if (e.key.size() != key.size()) return false;
    for (std::size_t i = 0; i < key.size(); ++i)
      if (!e.key[i].matches(key[i])) return false;
    return true;
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;
  uint64_t next_handle_ = 1;
  uint64_t rule_ops_ = 0;
};

// Small universes everywhere so exact duplicates, overlapping ternary
// rules, arity mismatches, and priority ties all occur constantly.
struct OpGen {
  std::mt19937 rng;
  explicit OpGen(uint32_t seed) : rng(seed) {}

  uint32_t word() { return rng() % 5; }
  std::size_t arity() { return 1 + rng() % 3; }
  int priority() { return static_cast<int>(rng() % 3); }

  std::vector<MatchWord> match_key() {
    std::vector<MatchWord> k(arity());
    for (MatchWord& w : k) {
      switch (rng() % 4) {
        case 0: w = MatchWord::wildcard(); break;
        case 1: w = {word(), 0x3};  // partial mask: its own tuple
          break;
        default: w = MatchWord::exact(word());  // all-ones tuples dominant
      }
    }
    return k;
  }

  std::vector<uint32_t> probe_key() {
    std::vector<uint32_t> k(arity());
    for (uint32_t& w : k) w = word();
    return k;
  }
};

TEST(MatchIndexDifferential, TenThousandRandomOpsMatchLinearScan) {
  TernaryTable<int> dut(256);
  ReferenceTable ref(256);
  OpGen gen(20260806);
  std::vector<uint64_t> live;  // handles valid in BOTH tables (kept in sync)
  uint64_t removed_max = 0;    // a handle guaranteed dead

  for (int op = 0; op < 10'000; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    switch (gen.rng() % 4) {
      case 0: {  // insert (skip at capacity; both would throw identically)
        if (ref.size() >= 250) break;
        const auto key = gen.match_key();
        const int pri = gen.priority();
        const int act = op;  // unique payload: result identity is exact
        const uint64_t hd = dut.insert(key, pri, act);
        const uint64_t hr = ref.insert(key, pri, act);
        ASSERT_EQ(hd, hr);  // same handle sequence by construction
        live.push_back(hd);
        break;
      }
      case 1: {  // remove: a live handle usually, a dead one sometimes
        if (!live.empty() && gen.rng() % 8 != 0) {
          const std::size_t i = gen.rng() % live.size();
          const uint64_t h = live[i];
          ASSERT_TRUE(dut.remove(h));
          ASSERT_TRUE(ref.remove(h));
          removed_max = std::max(removed_max, h);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ASSERT_FALSE(dut.remove(removed_max));
          ASSERT_FALSE(ref.remove(removed_max));
          ASSERT_FALSE(dut.remove(1'000'000));
          ASSERT_FALSE(ref.remove(1'000'000));
        }
        break;
      }
      case 2: {  // lookup: highest priority, ties to earliest install
        const auto key = gen.probe_key();
        const int* d = dut.lookup(key);
        const int* r = ref.lookup(key);
        ASSERT_EQ(d == nullptr, r == nullptr);
        if (d != nullptr) {
          ASSERT_EQ(*d, *r);
        }
        break;
      }
      default: {  // lookup_all: full match set in installation order
        const auto key = gen.probe_key();
        const auto dv = dut.lookup_all(std::span<const uint32_t>(key));
        const auto rv = ref.lookup_all(key);
        ASSERT_EQ(dv.size(), rv.size());
        for (std::size_t i = 0; i < dv.size(); ++i)
          ASSERT_EQ(*dv[i], rv[i]);
        break;
      }
    }
    ASSERT_EQ(dut.size(), ref.size());
    ASSERT_EQ(dut.rule_ops(), ref.rule_ops());
  }
}

TEST(MatchIndexDifferential, FixedCapacityLookupAllMatchesAllocatingPath) {
  TernaryTable<int> t(64);
  OpGen gen(77);
  for (int i = 0; i < 40; ++i) t.insert(gen.match_key(), gen.priority(), i);
  for (int probe = 0; probe < 200; ++probe) {
    const auto key = gen.probe_key();
    const auto vec = t.lookup_all(std::span<const uint32_t>(key));
    std::array<const int*, 64> scratch{};
    const std::size_t n = t.lookup_all(std::span<const uint32_t>(key),
                                       scratch.data(), scratch.size());
    ASSERT_EQ(n, vec.size());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(scratch[i], vec[i]);
  }
}

// Satellite regression: remove by handle must hit the right entry among
// duplicates (same key, same priority), and lookups after the removal must
// fall back to the earliest remaining duplicate.
TEST(MatchIndex, RemoveThenLookupWithDuplicatePriorities) {
  TernaryTable<int> t(16);
  const auto key = std::vector<MatchWord>{MatchWord::exact(9)};
  const uint64_t h1 = t.insert(key, 5, 100);
  const uint64_t h2 = t.insert(key, 5, 200);
  const uint64_t h3 = t.insert(key, 5, 300);

  // Tie on priority: earliest installed wins.
  ASSERT_EQ(*t.lookup({9u}), 100);
  ASSERT_EQ(t.lookup_all({9u}).size(), 3u);

  // Removing the winner promotes the next-earliest duplicate.
  EXPECT_TRUE(t.remove(h1));
  EXPECT_EQ(*t.lookup({9u}), 200);
  // Removing the LAST duplicate leaves the middle one matched.
  EXPECT_TRUE(t.remove(h3));
  EXPECT_EQ(*t.lookup({9u}), 200);
  ASSERT_EQ(t.lookup_all({9u}).size(), 1u);
  EXPECT_TRUE(t.remove(h2));
  EXPECT_EQ(t.lookup({9u}), nullptr);
  EXPECT_EQ(t.size(), 0u);
  // Double-remove stays a no-op and does not bump rule_ops.
  const uint64_t ops = t.rule_ops();
  EXPECT_FALSE(t.remove(h2));
  EXPECT_EQ(t.rule_ops(), ops);

  // A ternary duplicate overlapping an exact one: removal of the exact
  // entry keeps the ternary match reachable (index consistency across two
  // tuples).
  TernaryTable<int> t2(16);
  const uint64_t e = t2.insert({MatchWord::exact(4)}, 1, 1);
  t2.insert({MatchWord{4, 0x7}}, 1, 2);
  ASSERT_EQ(*t2.lookup({4u}), 1);  // tie: exact installed first
  EXPECT_TRUE(t2.remove(e));
  ASSERT_EQ(*t2.lookup({4u}), 2);
}

// Both tables answer `key` identically: the single best match and the full
// match set in installation order.
void expect_same_lookups(const TernaryTable<int>& dut,
                         const ReferenceTable& ref,
                         const std::vector<uint32_t>& key) {
  const int* d = dut.lookup(key);
  const int* r = ref.lookup(key);
  ASSERT_EQ(d == nullptr, r == nullptr);
  if (d != nullptr) {
    ASSERT_EQ(*d, *r);
  }
  const auto dv = dut.lookup_all(std::span<const uint32_t>(key));
  const auto rv = ref.lookup_all(key);
  ASSERT_EQ(dv.size(), rv.size());
  for (std::size_t i = 0; i < dv.size(); ++i) ASSERT_EQ(*dv[i], rv[i]);
}

// Drives both tables through `ops` random inserts, removals and probes that
// keep the live population within [lo, hi].  `live` holds the handles valid
// in both.
template <class Gen>
void churn_and_check(Gen& gen, int ops, std::size_t lo, std::size_t hi,
                     TernaryTable<int>& dut, ReferenceTable& ref,
                     std::vector<uint64_t>& live) {
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const uint32_t r = gen.rng() % 4;
    if (ref.size() < lo || (r == 0 && ref.size() < hi)) {
      const auto key = gen.match_key();
      const int pri = gen.priority();
      const int act = static_cast<int>(ref.rule_ops());  // unique payload
      const uint64_t h = dut.insert(key, pri, act);
      ASSERT_EQ(h, ref.insert(key, pri, act));
      live.push_back(h);
    } else if (!live.empty() && (r == 1 || ref.size() >= hi)) {
      const std::size_t i = gen.rng() % live.size();
      ASSERT_TRUE(dut.remove(live[i]));
      ASSERT_TRUE(ref.remove(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ASSERT_NO_FATAL_FAILURE(expect_same_lookups(dut, ref, gen.probe_key()));
    }
    ASSERT_EQ(dut.size(), ref.size());
    ASSERT_EQ(dut.rule_ops(), ref.rule_ops());
  }
}

// MatchWord allows value bits outside the mask ({0x7, 0x3} matches exactly
// what {0x3, 0x3} matches, and {5, 0} matches everything).  The index
// stores masked values, so such rules must land with their masked twins.
struct StrayBitsGen {
  std::mt19937 rng;
  explicit StrayBitsGen(uint32_t seed) : rng(seed) {}

  uint32_t u(uint32_t n) { return static_cast<uint32_t>(rng() % n); }
  std::size_t arity() { return 1 + rng() % 2; }
  int priority() { return static_cast<int>(rng() % 3); }

  std::vector<MatchWord> match_key() {
    std::vector<MatchWord> k(arity());
    for (MatchWord& w : k) {
      switch (rng() % 4) {
        case 0: w = {u(8), 0}; break;  // wildcard with stray value
        case 1: w = {u(8), 0x3}; break;
        case 2: w = {u(16), 0x5}; break;
        default: w = MatchWord::exact(u(8));
      }
    }
    return k;
  }

  std::vector<uint32_t> probe_key() {
    std::vector<uint32_t> k(arity());
    for (uint32_t& w : k) w = u(16);
    return k;
  }
};

TEST(MatchIndexDifferential, ValueBitsOutsideMaskMatchLinearScan) {
  TernaryTable<int> dut(256);
  ReferenceTable ref(256);
  StrayBitsGen gen(4242);
  std::vector<uint64_t> live;
  churn_and_check(gen, 6'000, 0, 120, dut, ref, live);
}

// newton_init's key shape: [sip, dip, sport, dport, proto, flags,
// at_ingress].  Nine rules in ten are dport tenants (dport exact, every
// other word wildcard), so one tuple holds 100+ rows and is hashed; dports
// repeat, so probe chains hold equal rows.  The rest are the standard
// suites' shapes (proto + flags, proto, all-wildcard, an ingress-only
// slice), scanned beside it.
struct InitShapeGen {
  std::mt19937 rng;
  explicit InitShapeGen(uint32_t seed) : rng(seed) {}

  uint32_t u(uint32_t n) { return static_cast<uint32_t>(rng() % n); }
  int priority() { return static_cast<int>(rng() % 3); }
  uint32_t dport() { return 20'000 + u(160); }

  std::vector<MatchWord> match_key() {
    std::vector<MatchWord> k(7, MatchWord::wildcard());
    switch (rng() % 20) {
      case 0: k[4] = MatchWord::exact(6); k[5] = MatchWord::exact(2); break;
      case 1: k[4] = MatchWord::exact(u(2) ? 6 : 17); break;
      case 2: break;
      case 3: k[3] = MatchWord::exact(dport()); k[6] = MatchWord::exact(1);
        break;
      default: k[3] = MatchWord::exact(dport());
    }
    return k;
  }

  std::vector<uint32_t> probe_key() {
    return {u(4), u(4), 1024 + u(4), dport() + u(8), u(2) ? 6u : 17u, u(3),
            u(2)};
  }
};

TEST(MatchIndexDifferential, HashedInitTupleUnderChurnMatchesLinearScan) {
  TernaryTable<int> dut(256);
  ReferenceTable ref(256);
  InitShapeGen gen(1312);
  std::vector<uint64_t> live;
  churn_and_check(gen, 10'000, 110, 220, dut, ref, live);
}

// InitModule::clone() copies the table at every replica load and mutation
// barrier.  A copy must keep answering from its own rows and hashes while
// the original is mutated, and go on mutating on its own.
TEST(MatchIndexDifferential, CopyThenMutateKeepsCopyExact) {
  TernaryTable<int> dut(256);
  ReferenceTable ref(256);
  InitShapeGen gen(99);
  std::vector<uint64_t> live;
  churn_and_check(gen, 600, 150, 200, dut, ref, live);

  TernaryTable<int> copy = dut;
  const ReferenceTable ref_copy = ref;
  std::vector<uint64_t> copy_live = live;
  TernaryTable<int> assigned(256);
  assigned = dut;

  churn_and_check(gen, 3'000, 20, 200, dut, ref, live);
  for (int probe = 0; probe < 500; ++probe) {
    const auto key = gen.probe_key();
    ASSERT_NO_FATAL_FAILURE(expect_same_lookups(copy, ref_copy, key));
    ASSERT_NO_FATAL_FAILURE(expect_same_lookups(assigned, ref_copy, key));
  }
  ReferenceTable ref_mut = ref_copy;
  churn_and_check(gen, 3'000, 20, 200, copy, ref_mut, copy_live);
}

}  // namespace
}  // namespace newton
