#include "core/decompose.h"

#include <stdexcept>

namespace newton {
namespace {

// Seed base for per-suite sketch rows; suites (rows) must hash
// independently, including rows that end up on different switches via CQE.
uint32_t suite_seed(std::size_t prim, std::size_t suite) {
  return 0x9e3779b9u + static_cast<uint32_t>(prim) * 0x85ebca6bu +
         static_cast<uint32_t>(suite) * 0xc2b2ae35u;
}

ModuleSpec base_spec(ModuleType t, std::size_t branch, std::size_t prim,
                     std::size_t suite) {
  ModuleSpec m;
  m.type = t;
  m.branch = branch;
  m.prim = prim;
  m.suite = suite;
  return m;
}

// Translate a terminal `when` into R's range match.  Count aggregates use
// the exact-crossing trick (the CM minimum rises by exactly 1 per matching
// packet, so [Th, Th] fires once per key per window); byte aggregates use a
// one-MTU window.
void apply_terminal_when(RConfig& r, Cmp op, uint32_t v, bool byte_sum) {
  const uint32_t hi_pad = byte_sum ? 1535 : 0;
  r.match_on_global = true;
  r.on_match = RAction::Report;
  r.on_miss = RAction::Continue;
  switch (op) {
    case Cmp::Ge: r.match_lo = v; r.match_hi = v + hi_pad; break;
    case Cmp::Gt: r.match_lo = v + 1; r.match_hi = v + 1 + hi_pad; break;
    case Cmp::Eq: r.match_lo = v; r.match_hi = v; break;
    case Cmp::Le: r.match_lo = 0; r.match_hi = v; break;
    case Cmp::Lt: r.match_lo = 0; r.match_hi = v == 0 ? 0 : v - 1; break;
    case Cmp::Ne:
      r.match_lo = v;
      r.match_hi = v;
      r.on_match = RAction::Continue;
      r.on_miss = RAction::Report;
      break;
  }
}

// Mid-chain `when` keeps the full condition range and stops non-matching
// packets instead of reporting.
void apply_midchain_when(RConfig& r, Cmp op, uint32_t v) {
  r.match_on_global = true;
  r.on_match = RAction::Continue;
  r.on_miss = RAction::Stop;
  switch (op) {
    case Cmp::Ge: r.match_lo = v; r.match_hi = 0xffffffffu; break;
    case Cmp::Gt: r.match_lo = v + 1; r.match_hi = 0xffffffffu; break;
    case Cmp::Eq: r.match_lo = v; r.match_hi = v; break;
    case Cmp::Le: r.match_lo = 0; r.match_hi = v; break;
    case Cmp::Lt: r.match_lo = 0; r.match_hi = v == 0 ? 0 : v - 1; break;
    case Cmp::Ne:
      r.match_lo = v;
      r.match_hi = v;
      r.on_match = RAction::Stop;
      r.on_miss = RAction::Continue;
      break;
  }
}

// Range match for one filter clause over the state result.
void apply_filter_clause(RConfig& r, const Predicate::Clause& c) {
  r.match_on_global = false;
  r.on_match = RAction::Continue;
  r.on_miss = RAction::Stop;
  const uint32_t v = c.value & c.mask;
  switch (c.op) {
    case Cmp::Eq: r.match_lo = v; r.match_hi = v; break;
    case Cmp::Ge: r.match_lo = v; r.match_hi = 0xffffffffu; break;
    case Cmp::Gt: r.match_lo = v + 1; r.match_hi = 0xffffffffu; break;
    case Cmp::Le: r.match_lo = 0; r.match_hi = v; break;
    case Cmp::Lt: r.match_lo = 0; r.match_hi = v == 0 ? 0 : v - 1; break;
    case Cmp::Ne:
      r.match_lo = v;
      r.match_hi = v;
      r.on_match = RAction::Stop;
      r.on_miss = RAction::Continue;
      break;
  }
}

}  // namespace

std::array<uint32_t, kNumFields> masks_of(const std::vector<KeySel>& keys) {
  std::array<uint32_t, kNumFields> masks{};
  for (const KeySel& k : keys)
    masks[index(k.field)] |= k.mask & field_full_mask(k.field);
  return masks;
}

InitEntrySpec InitEntrySpec::match_all() {
  InitEntrySpec e;
  e.key.assign(6, MatchWord::wildcard());
  e.priority = 0;
  return e;
}

bool InitEntrySpec::overlaps(const InitEntrySpec& other) const {
  if (key.size() != other.key.size()) return false;
  for (std::size_t i = 0; i < key.size(); ++i) {
    const uint32_t both = key[i].mask & other.key[i].mask;
    if ((key[i].value ^ other.key[i].value) & both) return false;
  }
  return true;
}

BranchModules decompose_branch(const Query& q, std::size_t branch_index,
                               bool opt1) {
  const BranchDef& def = q.branches.at(branch_index);
  // Every branch ends in a reporting R (the terminal step below), so every
  // installed branch lowers to a compiled chain.  Only an empty branch has
  // nothing to report.
  if (def.primitives.empty())
    throw std::invalid_argument("decompose_branch: branch " + def.name +
                                " has no primitives");
  BranchModules out;
  out.name = def.name;
  out.branch_index = branch_index;
  out.init = InitEntrySpec::match_all();

  // --- Opt.1: absorb leading init-expressible filters into newton_init.
  std::size_t first_prim = 0;
  if (opt1) {
    std::array<MatchWord, 6> words{};  // sip dip sport dport proto flags
    for (auto& w : words) w = MatchWord::wildcard();
    auto slot_of = [](Field f) -> int {
      switch (f) {
        case Field::SrcIp: return 0;
        case Field::DstIp: return 1;
        case Field::SrcPort: return 2;
        case Field::DstPort: return 3;
        case Field::Proto: return 4;
        case Field::TcpFlags: return 5;
        default: return -1;
      }
    };
    bool absorbed_any = false;
    while (first_prim < def.primitives.size()) {
      const Primitive& p = def.primitives[first_prim];
      if (p.kind != PrimitiveKind::Filter || !p.pred.init_expressible())
        break;
      for (const auto& c : p.pred.clauses) {
        const int s = slot_of(c.field);
        MatchWord& w = words[static_cast<std::size_t>(s)];
        w.mask |= c.mask;
        w.value = (w.value & ~c.mask) | (c.value & c.mask);
      }
      absorbed_any = true;
      ++first_prim;
    }
    if (absorbed_any) {
      out.init.key.assign(words.begin(), words.end());
      out.init.priority = 10;
    }
  }

  // --- Tuple tracking: the stream's tuple is defined by the last
  // map/distinct/reduce; a later filter clause overwrites the metadata-set
  // keys with its own selection, so a terminal report after it must
  // re-derive the tuple with a fresh K.
  std::size_t last_tuple_prim = SIZE_MAX;
  bool tuple_clobbered = false;
  for (std::size_t j = first_prim; j < def.primitives.size(); ++j) {
    const PrimitiveKind k = def.primitives[j].kind;
    if (k == PrimitiveKind::Map || k == PrimitiveKind::Distinct ||
        k == PrimitiveKind::Reduce) {
      last_tuple_prim = j;
      tuple_clobbered = false;
    } else if (k == PrimitiveKind::Filter && last_tuple_prim != SIZE_MAX) {
      tuple_clobbered = true;
    }
  }
  std::array<uint32_t, kNumFields> tuple_masks{};
  if (last_tuple_prim != SIZE_MAX) {
    tuple_masks = masks_of(def.primitives[last_tuple_prim].keys);
  } else {
    for (std::size_t f = 0; f < kNumFields; ++f)
      tuple_masks[f] = field_full_mask(static_cast<Field>(f));
  }

  // --- Naive expansion of the remaining primitives.
  auto& ms = out.modules;
  for (std::size_t pi = first_prim; pi < def.primitives.size(); ++pi) {
    const Primitive& p = def.primitives[pi];
    switch (p.kind) {
      case PrimitiveKind::Filter: {
        for (std::size_t ci = 0; ci < p.pred.clauses.size(); ++ci) {
          const auto& c = p.pred.clauses[ci];
          ModuleSpec k = base_spec(ModuleType::K, branch_index, pi, ci);
          k.k.masks = masks_of({KeySel(c.field, c.mask)});
          ms.push_back(k);

          ModuleSpec h = base_spec(ModuleType::H, branch_index, pi, ci);
          h.h.direct = true;
          h.h.direct_field = c.field;
          h.h.width = 0;
          ms.push_back(h);

          ModuleSpec s = base_spec(ModuleType::S, branch_index, pi, ci);
          s.s.bypass = true;
          ms.push_back(s);

          ModuleSpec r = base_spec(ModuleType::R, branch_index, pi, ci);
          apply_filter_clause(r.r, c);
          ms.push_back(r);
        }
        break;
      }
      case PrimitiveKind::Map: {
        ModuleSpec k = base_spec(ModuleType::K, branch_index, pi, 0);
        k.k.masks = masks_of(p.keys);
        ms.push_back(k);
        // Placeholders a naive compilation still lays out (Opt.2 removes).
        for (ModuleType t : {ModuleType::H, ModuleType::S, ModuleType::R}) {
          ModuleSpec ph = base_spec(t, branch_index, pi, 0);
          ph.rule_needed = false;
          ms.push_back(ph);
        }
        break;
      }
      case PrimitiveKind::Distinct:
      case PrimitiveKind::Reduce: {
        const bool is_distinct = p.kind == PrimitiveKind::Distinct;
        const uint32_t width = static_cast<uint32_t>(q.sketch_width);
        const std::size_t parts = q.row_partitions;
        for (std::size_t suite = 0; suite < q.sketch_depth; ++suite) {
          ModuleSpec k = base_spec(ModuleType::K, branch_index, pi, suite);
          k.k.masks = masks_of(p.keys);
          ms.push_back(k);

          ModuleSpec h = base_spec(ModuleType::H, branch_index, pi, suite);
          h.h.algo = HashAlgo::Crc32c;
          h.h.seed = suite_seed(pi, suite);
          // The hash spans the whole logical row; guards below select the
          // owning partition (cross-switch register pooling).
          h.h.width = width * static_cast<uint32_t>(parts);
          ms.push_back(h);

          for (std::size_t part = 0; part < parts; ++part) {
            ModuleSpec s = base_spec(ModuleType::S, branch_index, pi, suite);
            if (is_distinct) {
              s.s.op = SaluOp::Or;
              s.s.operand = 1;
            } else {
              s.s.op = SaluOp::Add;
              s.s.operand = 1;
              s.s.operand_is_pkt_len = p.value_field_is_len != 0;
            }
            s.s.guard_lo = static_cast<uint32_t>(part) * width;
            s.s.guard_hi = static_cast<uint32_t>(part + 1) * width - 1;
            s.alloc_width = width;
            ms.push_back(s);

            ModuleSpec r = base_spec(ModuleType::R, branch_index, pi, suite);
            r.r.combine =
                suite == 0 && part == 0 ? RCombine::Set : RCombine::Min;
            r.r.match_on_global = true;
            r.r.match_lo = 0;
            r.r.match_hi = 0xffffffffu;
            r.r.on_match = RAction::Continue;
            r.r.on_miss = RAction::Continue;
            if (is_distinct && suite == q.sketch_depth - 1 &&
                part == parts - 1) {
              // Pass only first occurrences: min of previous row values == 0.
              r.r.match_lo = 0;
              r.r.match_hi = 0;
              r.r.on_match = RAction::Continue;
              r.r.on_miss = RAction::Stop;
            }
            ms.push_back(r);
          }
        }
        break;
      }
      case PrimitiveKind::When: {
        // Placeholders for K/H/S; only R carries a rule.
        for (ModuleType t : {ModuleType::K, ModuleType::H, ModuleType::S}) {
          ModuleSpec ph = base_spec(t, branch_index, pi, 0);
          ph.rule_needed = false;
          ms.push_back(ph);
        }
        ModuleSpec r = base_spec(ModuleType::R, branch_index, pi, 0);
        // The exact-crossing report form is only valid when this `when` is
        // the branch's last primitive AND the tuple keys are still intact
        // in a metadata set (no filter clause clobbered them since).  A
        // streaming `when` opts out: it keeps the mid-chain gate form so the
        // terminal report fires per surviving packet, exporting the running
        // aggregate instead of one crossing event.
        const bool terminal = pi + 1 == def.primitives.size() &&
                              !tuple_clobbered && p.when_stream == 0;
        // Does the threshold apply to a byte sum?
        bool byte_sum = false;
        for (std::size_t j = pi; j-- > first_prim;) {
          if (def.primitives[j].kind == PrimitiveKind::Reduce) {
            byte_sum = def.primitives[j].value_field_is_len != 0;
            break;
          }
        }
        if (terminal)
          apply_terminal_when(r.r, p.when_op, p.when_value, byte_sum);
        else
          apply_midchain_when(r.r, p.when_op, p.when_value);
        ms.push_back(r);
        break;
      }
    }
  }

  // --- Terminal report.  The exported keys are the branch's TUPLE — the
  // keys of the last map/distinct/reduce.  Folding the report onto an
  // existing R is only sound when that R's metadata set still holds the
  // tuple: the last primitive is the tuple owner (distinct/reduce) or a
  // `when` with no intervening filter clause.  Otherwise a dedicated
  // K (re-deriving the tuple from packet headers) + always-report R pair
  // is appended; Opt.2 deduplicates the K when the tuple keys are already
  // selected.
  ModuleSpec* last_r = nullptr;
  for (auto& m : ms)
    if (m.type == ModuleType::R && m.rule_needed) last_r = &m;
  const std::size_t last_prim = ms.empty() ? 0 : ms.back().prim;
  const PrimitiveKind last_kind = def.primitives.back().kind;

  bool safe_fold = last_r != nullptr && last_r->prim == last_prim;
  if (safe_fold) {
    if (last_kind == PrimitiveKind::Distinct ||
        last_kind == PrimitiveKind::Reduce)
      safe_fold = true;  // the decision R's set holds the tuple keys
    else if (last_kind == PrimitiveKind::When)
      safe_fold = !tuple_clobbered;
    else
      safe_fold = false;  // filter-terminal: its R holds the filter field
  }

  if (safe_fold) {
    if (last_r->r.on_match == RAction::Continue &&
        last_r->r.on_miss != RAction::Report)
      last_r->r.on_match = RAction::Report;
  } else {
    // Re-derive the tuple and report every surviving packet.  (For an
    // unsafe terminal `when`, the when R keeps its mid-chain stop form, so
    // only packets satisfying the threshold reach this pair; such byte-sum
    // reports repeat per packet and are deduplicated by the analyzer.)
    constexpr std::size_t kReportSuite = 9'990;
    ModuleSpec k =
        base_spec(ModuleType::K, branch_index, last_prim, kReportSuite);
    k.k.masks = tuple_masks;
    ms.push_back(k);
    ModuleSpec r =
        base_spec(ModuleType::R, branch_index, last_prim, kReportSuite);
    r.r.combine = RCombine::None;
    r.r.match_on_global = false;
    r.r.match_lo = 0;
    r.r.match_hi = 0xffffffffu;
    r.r.on_match = RAction::Report;
    ms.push_back(r);
  }
  return out;
}

}  // namespace newton
