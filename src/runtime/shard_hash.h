// Flow-key sharding: which packet fields the demux hashes to pick a worker,
// and which installed query branches each key serves.
//
// Newton's distinct/reduce primitives aggregate per query key, so the
// runtime keeps exact semantics without cross-worker coordination only if
// every packet of one aggregation key reaches one shard.  A key is affine
// for a branch when its fields are fields every stateful primitive of the
// branch selects, each masked no finer than the primitives' keys.  No one
// key serves a realistic query mix (q1/q5 reduce on dip, q3 on sip), so the
// runtime partitions the installed branches into key groups
// (derive_shard_groups): the demux hashes each packet once per group and
// each shard runs only the branches of the groups that sent it the packet
// (docs/runtime.md "Sharding by key group").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/query.h"
#include "packet/fields.h"
#include "packet/packet.h"

namespace newton {

struct ShardKey {
  std::vector<Field> fields;
  // Optional per-field masks (parallel to `fields`; empty = exact values).
  // Masked sharding is how prefix-keyed queries stay key-affine: sharding
  // on sip/8 keeps every finer prefix (/16, /24) and every exact sip of
  // that /8 on one shard — a coarsening of a query's key is always affine
  // for it.
  std::vector<uint32_t> masks;

  // The key of a group holding only stateless branches: any key is exact
  // for them, and the 5-tuple spreads load best.
  static ShardKey five_tuple() {
    return {{Field::SrcIp, Field::DstIp, Field::SrcPort, Field::DstPort,
             Field::Proto},
            {}};
  }
  static ShardKey on(std::vector<Field> f) { return {std::move(f), {}}; }
  static ShardKey on_masked(std::vector<Field> f, std::vector<uint32_t> m) {
    return {std::move(f), std::move(m)};
  }

  uint32_t mask(std::size_t i) const {
    return i < masks.size() ? masks[i] : 0xffffffffu;
  }

  friend bool operator==(const ShardKey&, const ShardKey&) = default;

  // FNV-1a over the selected field values (same scheme as FiveTupleHash).
  uint64_t hash(const Packet& p) const {
    uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const uint32_t v = p.get(fields[i]) & mask(i);
      for (int b = 0; b < 4; ++b) {
        h ^= (v >> (b * 8)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
    return h;
  }

  std::size_t shard_of(const Packet& p, std::size_t num_shards) const {
    if (num_shards <= 1) return 0;
    return static_cast<std::size_t>(hash(p) % num_shards);
  }
};

// "sip", "sip/ff000000", "sip,dip,sport,dport,proto"; "const" for the
// constant key of a pinned group.
std::string describe(const ShardKey& k);

// Groups a packet visit can carry: WorkItem::groups is a 32-bit mask.
inline constexpr std::size_t kMaxShardGroups = 32;

// One key group: the branches (qids) whose packets the demux routes by
// `key`.  `pinned` marks the constant-key group (ShardKey::on({})) of
// branches with no field common to all their stateful primitives: every
// packet of theirs meets on one shard, which is exact but does not scale.
struct ShardGroup {
  ShardKey key;
  std::vector<uint16_t> qids;  // install order
  bool pinned = false;
};

// One installed query branch, as the derivation sees it.
struct ShardBranch {
  uint16_t qid = 0;
  const BranchDef* def = nullptr;
};

// Partition `branches` (in install order) into key groups.  A stateful
// branch's candidates are the fields every one of its distinct/reduce
// primitives selects, each under the AND of those primitives' masks; it
// joins the first group keyed on one of its candidates whose AND-ed mask
// stays non-zero, else opens a group on its first candidate (order sip,
// dip, sport, dport, pkt_len, tcp_flags, ttl, ip_id, proto).  A branch with
// no candidate, or beyond kMaxShardGroups, joins the pinned group.
// Stateless branches join group 0; with no group at all the key is the
// 5-tuple.  An `explicit_key` is group 0's key as given: the branches it is
// affine for join it, and the rest are grouped as above.
std::vector<ShardGroup> derive_shard_groups(
    std::span<const ShardBranch> branches,
    const std::optional<ShardKey>& explicit_key = std::nullopt);

}  // namespace newton
