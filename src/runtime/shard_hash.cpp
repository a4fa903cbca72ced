#include "runtime/shard_hash.h"

#include <algorithm>
#include <array>
#include <cstdio>

namespace newton {

namespace {

// The fields every stateful primitive of a branch selects, each under the
// AND of those primitives' masks (a coarsening of every one of its keys).
struct Candidates {
  bool stateful = false;
  std::array<bool, kNumFields> common{};
  std::array<uint32_t, kNumFields> mask{};
};

Candidates candidates_of(const BranchDef& b) {
  Candidates c;
  c.common.fill(true);
  c.mask.fill(0xffffffffu);
  for (const Primitive& p : b.primitives) {
    if (p.kind != PrimitiveKind::Distinct && p.kind != PrimitiveKind::Reduce)
      continue;
    c.stateful = true;
    std::array<bool, kNumFields> here{};
    for (const KeySel& k : p.keys) {
      here[index(k.field)] = true;
      c.mask[index(k.field)] &= k.mask;
    }
    for (std::size_t f = 0; f < kNumFields; ++f) c.common[f] &= here[f];
  }
  // Disjoint masks AND to zero: hashing on nothing of the field is no key.
  for (std::size_t f = 0; f < kNumFields; ++f)
    c.common[f] = c.stateful && c.common[f] &&
                  (c.mask[f] & field_full_mask(static_cast<Field>(f))) != 0;
  return c;
}

ShardKey key_on(Field f, uint32_t m) {
  return (m & field_full_mask(f)) == field_full_mask(f)
             ? ShardKey::on({f})
             : ShardKey::on_masked({f}, {m});
}

// Every field of `k` is a candidate, masked no finer than the branch.
bool affine(const ShardKey& k, const Candidates& c) {
  for (std::size_t i = 0; i < k.fields.size(); ++i) {
    const std::size_t f = index(k.fields[i]);
    if (!c.common[f] ||
        (k.mask(i) & field_full_mask(k.fields[i]) & ~c.mask[f]) != 0)
      return false;
  }
  return true;
}

}  // namespace

std::string describe(const ShardKey& k) {
  if (k.fields.empty()) return "const";
  std::string out;
  for (std::size_t i = 0; i < k.fields.size(); ++i) {
    if (i > 0) out += ',';
    out += field_name(k.fields[i]);
    if ((k.mask(i) & field_full_mask(k.fields[i])) !=
        field_full_mask(k.fields[i])) {
      char hex[16];
      std::snprintf(hex, sizeof hex, "/%x", k.mask(i));
      out += hex;
    }
  }
  return out;
}

std::vector<ShardGroup> derive_shard_groups(
    std::span<const ShardBranch> branches,
    const std::optional<ShardKey>& explicit_key) {
  // Field order in which a branch opens a new group.
  constexpr std::array<Field, kNumFields> kOrder{
      Field::SrcIp,    Field::DstIp, Field::SrcPort, Field::DstPort,
      Field::PktLen,   Field::TcpFlags, Field::Ttl,  Field::IpId,
      Field::Proto};
  std::vector<ShardGroup> groups;
  if (explicit_key) groups.push_back({*explicit_key, {}, false});
  std::optional<std::size_t> pinned;
  // Group of each branch; stateless branches (nullopt) join group 0.
  std::vector<std::optional<std::size_t>> at(branches.size());
  for (std::size_t bi = 0; bi < branches.size(); ++bi) {
    const Candidates c = candidates_of(*branches[bi].def);
    if (!c.stateful) continue;
    if (explicit_key && affine(*explicit_key, c)) {
      at[bi] = 0;
      continue;
    }
    // Derived groups are keyed on one field and re-mask as branches join;
    // the explicit and the pinned group never do.
    for (std::size_t g = explicit_key ? 1 : 0; g < groups.size() && !at[bi];
         ++g) {
      if (groups[g].pinned) continue;
      const Field f = groups[g].key.fields[0];
      const uint32_t m = groups[g].key.mask(0) & c.mask[index(f)];
      if (!c.common[index(f)] || (m & field_full_mask(f)) == 0) continue;
      groups[g].key = key_on(f, m);
      at[bi] = g;
    }
    if (at[bi]) continue;
    const auto first = std::find_if(
        kOrder.begin(), kOrder.end(),
        [&](Field f) { return c.common[index(f)]; });
    // The last mask bit stays free for the pinned group.
    if (first != kOrder.end() &&
        groups.size() + (pinned ? 1 : 2) <= kMaxShardGroups) {
      at[bi] = groups.size();
      groups.push_back({key_on(*first, c.mask[index(*first)]), {}, false});
      continue;
    }
    if (!pinned) {
      pinned = groups.size();
      groups.push_back({ShardKey::on({}), {}, true});
    }
    at[bi] = pinned;
  }
  if (groups.empty()) groups.push_back({ShardKey::five_tuple(), {}, false});
  for (std::size_t bi = 0; bi < branches.size(); ++bi)
    groups[at[bi].value_or(0)].qids.push_back(branches[bi].qid);
  return groups;
}

}  // namespace newton
