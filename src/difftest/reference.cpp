#include "difftest/reference.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/decompose.h"

namespace newton::difftest {

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

// Per-window interpreter state of one stateful primitive.
struct PrimState {
  std::unordered_set<KeyArray, KeyArrayHash> distinct_seen;
  std::unordered_map<KeyArray, uint64_t, KeyArrayHash> counters;
};

}  // namespace

KeySet ExecResult::passing_union(std::size_t query, std::size_t branch) const {
  KeySet out;
  const auto it = detected.find({query, branch});
  if (it == detected.end()) return out;
  for (const auto& [w, ks] : it->second) out.insert(ks.begin(), ks.end());
  return out;
}

ExecResult run_reference(const Scenario& s, const Trace& t) {
  ExecResult out;
  const std::vector<ResolvedOp> ops = resolve_ops(s);
  std::size_t next_op = 0;
  // Live definition per query index (empty = not installed).
  std::vector<std::optional<Query>> live(s.queries.size());
  const auto apply_due = [&](uint64_t upto_packet) {
    for (; next_op < ops.size() && ops[next_op].at_packet <= upto_packet;
         ++next_op) {
      const ResolvedOp& op = ops[next_op];
      if (op.kind == ResolvedOp::Kind::Install)
        live[op.query] = op.def;
      else
        live[op.query].reset();
    }
  };
  apply_due(0);

  // State keyed by (query, branch, primitive index); cleared every window.
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, PrimState> state;
  const auto at_roll = [&](std::size_t i) {
    apply_due(i);
    state.clear();
  };
  const auto on_packet = [&](std::size_t i, uint64_t w) {
    const Packet& pkt = t.packets[i];
    for (std::size_t qi = 0; qi < live.size(); ++qi) {
      if (!live[qi]) continue;
      const Query& q = *live[qi];
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
              const auto masks = masks_of(p.keys);
              for (std::size_t f = 0; f < kNumFields; ++f)
                keys[f] = pkt.fields[f] & masks[f];
              alive = state[{qi, bi, pi}].distinct_seen.insert(keys).second;
              break;
            }
            case PrimitiveKind::Reduce: {
              const auto masks = masks_of(p.keys);
              for (std::size_t f = 0; f < kNumFields; ++f)
                keys[f] = pkt.fields[f] & masks[f];
              auto& st = state[{qi, bi, pi}];
              const uint64_t delta =
                  p.value_field_is_len ? pkt.get(Field::PktLen) : 1;
              st.counters[keys] += delta;
              agg_value = st.counters[keys];
              out.reduce_universe[{qi, bi}].insert(keys);
              break;
            }
            case PrimitiveKind::When:
              alive = cmp_eval(p.when_op, agg_value, p.when_value);
              if (alive && pi + 1 == b.primitives.size()) reported = true;
              break;
          }
        }
        if (alive) {
          // A branch that ends without a threshold reports every surviving
          // packet's keys (map/distinct-terminal chains).
          (void)reported;
          out.detected[{qi, bi}][w].insert(keys);
        }
      }
    }
  };
  out.late_packets =
      replay_windows(t, s.window_ns(), at_roll, on_packet).late_packets;
  return out;
}

}  // namespace newton::difftest
