#include "compile/chain_ir.h"

#include <algorithm>

#include "core/modules.h"
#include "dataplane/pipeline.h"

namespace newton::compile {

namespace {

Chain& chain_for(std::vector<Chain>& chains, uint16_t qid) {
  for (Chain& c : chains)
    if (c.qid == qid) return c;
  chains.push_back({qid, {}});
  return chains.back();
}

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

Lowering lower(Pipeline& pipe) {
  Lowering out;
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
          chain_for(out.chains, qid).ops.push_back(op);
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
          chain_for(out.chains, qid).ops.push_back(op);
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
          chain_for(out.chains, qid).ops.push_back(op);
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
          chain_for(out.chains, qid).ops.push_back(op);
        });
      } else {
        // A table type the lowerer doesn't model: the interpreter owns this
        // pipeline outright.
        out.ok = false;
        out.chains.clear();
        return out;
      }
    }
  }
  std::sort(out.chains.begin(), out.chains.end(),
            [](const Chain& a, const Chain& b) { return a.qid < b.qid; });
  return out;
}

}  // namespace newton::compile
