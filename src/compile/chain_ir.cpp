#include "compile/chain_ir.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/modules.h"
#include "dataplane/pipeline.h"

namespace newton::compile {

namespace {

ChainOp base_op(OpKind kind, uint16_t qid, uint8_t set, std::size_t stage,
                std::size_t slot, TableProgram& mod) {
  ChainOp op;
  op.kind = kind;
  op.qid = qid;
  op.set = set;
  op.order = static_cast<uint32_t>((stage << 8) | slot);
  op.hits = mod.hits_cell();
  return op;
}

}  // namespace

std::vector<Chain> lower(Pipeline& pipe) {
  std::vector<Chain> out;
  std::array<uint16_t, kMaxQueries> slot;  // qid -> index into out + 1
  slot.fill(0);
  const auto chain_for = [&](uint16_t qid) -> Chain& {
    if (slot.at(qid) == 0) {
      out.push_back({qid, {}});
      slot[qid] = static_cast<uint16_t>(out.size());
    }
    return out[slot[qid] - 1u];
  };
  // Walk (stage, slot) major — the interpreter's visit order — appending
  // each rule to its query's chain, so every chain comes out already
  // ordered and a k-way merge by `order` reconstructs the exact
  // interleaving the interpreter would execute.
  for (std::size_t si = 0; si < pipe.num_stages(); ++si) {
    const auto& tables = pipe.stage(si).tables();
    for (std::size_t ti = 0; ti < tables.size(); ++ti) {
      TableProgram* t = tables[ti].get();
      if (auto* k = dynamic_cast<KModule*>(t)) {
        k->table().for_each([&](uint16_t qid, const KConfig& cfg) {
          ChainOp op = base_op(OpKind::K, qid, cfg.set, si, ti, *k);
          op.masks = cfg.masks;
          chain_for(qid).ops.push_back(op);
        });
      } else if (auto* h = dynamic_cast<HModule*>(t)) {
        h->table().for_each([&](uint16_t qid, const HConfig& cfg) {
          ChainOp op = base_op(cfg.direct ? OpKind::HDirect : OpKind::HHash,
                               qid, cfg.set, si, ti, *h);
          op.algo = cfg.algo;
          op.seed = cfg.seed;
          op.width = cfg.width;
          op.offset = cfg.offset;
          op.direct_index = static_cast<uint8_t>(index(cfg.direct_field));
          chain_for(qid).ops.push_back(op);
        });
      } else if (auto* s = dynamic_cast<SModule*>(t)) {
        s->table().for_each([&](uint16_t qid, const SConfig& cfg) {
          ChainOp op = base_op(cfg.bypass ? OpKind::SBypass : OpKind::SOp,
                               qid, cfg.set, si, ti, *s);
          op.regs = &s->registers();
          op.sop = cfg.op;
          op.operand_is_pkt_len = cfg.operand_is_pkt_len;
          op.operand = cfg.operand;
          op.guard_lo = cfg.guard_lo;
          op.guard_hi = cfg.guard_hi;
          op.index_base = cfg.index_base;
          chain_for(qid).ops.push_back(op);
        });
      } else if (auto* r = dynamic_cast<RModule*>(t)) {
        r->table().for_each([&](uint16_t qid, const RConfig& cfg) {
          ChainOp op = base_op(OpKind::R, qid, cfg.set, si, ti, *r);
          op.combine = cfg.combine;
          op.match_on_global = cfg.match_on_global;
          op.match_lo = cfg.match_lo;
          op.match_hi = cfg.match_hi;
          op.on_match = cfg.on_match;
          op.on_miss = cfg.on_miss;
          op.sink = r->sink();
          op.switch_id = r->switch_id();
          chain_for(qid).ops.push_back(op);
        });
      } else {
        throw std::logic_error("compile::lower: unmodeled table " +
                               t->name());
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Chain& a, const Chain& b) { return a.qid < b.qid; });
  return out;
}

}  // namespace newton::compile
