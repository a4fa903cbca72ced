// Rule-level configurations of the four Newton modules (§4.1, Figure 2).
//
// A module is a P4 table whose *rules* select among precompiled actions and
// parameters; installing a query means installing one rule per used module.
// These structs are exactly the payload of such rules.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "dataplane/register_array.h"
#include "packet/fields.h"
#include "sketch/hash.h"

namespace newton {

enum class ModuleType : uint8_t { K, H, S, R };

constexpr std::string_view module_name(ModuleType t) {
  switch (t) {
    case ModuleType::K: return "K";
    case ModuleType::H: return "H";
    case ModuleType::S: return "S";
    case ModuleType::R: return "R";
  }
  return "?";
}

// Key selection: bit-mask over the global fields; writes set `set`'s
// operation keys.  Unselected fields get mask 0.
struct KConfig {
  std::array<uint32_t, kNumFields> masks{};
  uint8_t set = 0;
  friend bool operator==(const KConfig&, const KConfig&) = default;
};

// Hash calculation over the operation keys of set `set`.
// Result = offset + (hash % width); `direct` passes one key field through
// instead of hashing (H's direct mode).
struct HConfig {
  HashAlgo algo = HashAlgo::Crc32;
  uint32_t seed = 0;
  uint32_t width = 1;    // size of the per-rule register slice
  uint32_t offset = 0;   // base of the slice inside the state bank
  bool direct = false;
  Field direct_field = Field::SrcIp;
  uint8_t set = 0;
  friend bool operator==(const HConfig&, const HConfig&) = default;
};

// State bank: one SALU op on a register selected by the hash result, or a
// bypass that copies the hash result into the state result (how filters
// move the compared value along — "uses S to transmit the hash result to
// the state result").
//
// Row partitioning: a logical sketch row may span several state banks
// (cross-switch register pooling, §5.1/§6.3).  Each partition's S rule
// guards on its hash sub-range [guard_lo, guard_hi]; a miss outputs
// kSMissValue — the identity of R's min-combine — so exactly one partition
// contributes the row's real value.
struct SConfig {
  bool bypass = false;
  SaluOp op = SaluOp::Add;
  // Operand: constant, or the packet length field (reduce f=sum over bytes).
  bool operand_is_pkt_len = false;
  uint32_t operand = 1;
  // Hash-range guard for this partition (inclusive).
  uint32_t guard_lo = 0;
  uint32_t guard_hi = 0xffffffffu;
  // Local register base: index = index_base + (hash_result - guard_lo).
  uint32_t index_base = 0;
  uint8_t set = 0;
  friend bool operator==(const SConfig&, const SConfig&) = default;
};

inline constexpr uint32_t kSMissValue = 0xffffffffu;

// How R folds the set's state result into the global result before matching.
enum class RCombine : uint8_t { None, Set, Min, Max, Add, Sub };

// What R does when its ternary/range match hits (or misses).
enum class RAction : uint8_t { Continue, Stop, Report, ReportStop };

// Result process: combine, then range-match the global result (or the raw
// state result), then act.  `report` mirrors the metadata to the analyzer.
struct RConfig {
  uint8_t set = 0;
  RCombine combine = RCombine::None;
  bool match_on_global = true;
  uint32_t match_lo = 0;
  uint32_t match_hi = 0xffffffffu;
  RAction on_match = RAction::Continue;
  RAction on_miss = RAction::Continue;
  friend bool operator==(const RConfig&, const RConfig&) = default;
};

}  // namespace newton
