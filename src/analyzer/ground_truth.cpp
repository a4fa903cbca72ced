#include "analyzer/ground_truth.h"

#include <unordered_map>
#include <unordered_set>

#include "core/decompose.h"
#include "core/window.h"

namespace newton {
namespace {

struct KeyArrayHash {
  std::size_t operator()(const KeyArray& k) const {
    std::size_t h = 0xcbf29ce484222325ull;
    for (uint32_t v : k) {
      h ^= v;
      h *= 0x100000001b3ull;
    }
    return h;
  }
};

// Per-window interpreter state for one branch.
struct BranchState {
  std::unordered_set<KeyArray, KeyArrayHash> distinct_seen;
  std::unordered_map<KeyArray, uint64_t, KeyArrayHash> counters;
  void clear() {
    distinct_seen.clear();
    counters.clear();
  }
};

}  // namespace

KeySet QueryTruth::passing_union(std::size_t branch) const {
  KeySet out;
  for (const auto& [w, ks] : branches.at(branch).passing)
    out.insert(ks.begin(), ks.end());
  return out;
}

QueryTruth exact_truth(const Query& q, const Trace& trace) {
  QueryTruth truth;
  truth.branches.resize(q.branches.size());
  // Distinct/counter state is per (branch, primitive); key it by primitive
  // index so chained stateful primitives do not interfere.
  std::vector<std::map<std::size_t, BranchState>> state(q.branches.size());

  // The switch's windows: a late packet counts in the open window.
  WindowClock clock(q.window_ns);
  for (const Packet& pkt : trace.packets) {
    if (clock.rolls(pkt.ts_ns)) {
      for (auto& br : state)
        for (auto& [pi, st] : br) st.clear();
      clock.open(pkt.ts_ns);
    }
    const uint64_t w = clock.window();

    for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
      const BranchDef& b = q.branches[bi];
      KeyArray keys = pkt.fields;
      uint64_t agg_value = 0;
      bool alive = true;
      bool reported = false;

      for (std::size_t pi = 0; pi < b.primitives.size() && alive; ++pi) {
        const Primitive& p = b.primitives[pi];
        switch (p.kind) {
          case PrimitiveKind::Filter:
            alive = p.pred.eval(pkt);
            break;
          case PrimitiveKind::Map: {
            const auto masks = masks_of(p.keys);
            for (std::size_t f = 0; f < kNumFields; ++f)
              keys[f] = pkt.fields[f] & masks[f];
            break;
          }
          case PrimitiveKind::Distinct: {
            // distinct projects the tuple to its keys (like map) and passes
            // only each key's first occurrence in the window.
            const auto masks = masks_of(p.keys);
            for (std::size_t f = 0; f < kNumFields; ++f)
              keys[f] = pkt.fields[f] & masks[f];
            auto& st = state[bi][pi];
            alive = st.distinct_seen.insert(keys).second;
            break;
          }
          case PrimitiveKind::Reduce: {
            const auto masks = masks_of(p.keys);
            for (std::size_t f = 0; f < kNumFields; ++f)
              keys[f] = pkt.fields[f] & masks[f];
            auto& st = state[bi][pi];
            const uint64_t delta =
                p.value_field_is_len ? pkt.get(Field::PktLen) : 1;
            st.counters[keys] += delta;
            agg_value = st.counters[keys];
            truth.branches[bi].universe[w].insert(keys);
            break;
          }
          case PrimitiveKind::When:
            alive = cmp_eval(p.when_op, agg_value, p.when_value);
            if (alive && pi + 1 == b.primitives.size()) reported = true;
            break;
        }
      }
      if (alive && !reported) {
        // Branch ends without a threshold: every surviving packet reports
        // its keys (map/distinct-terminal branches).
        reported = true;
      }
      if (alive && reported) truth.branches[bi].passing[w].insert(keys);
    }
  }
  return truth;
}

}  // namespace newton
