#include "compile/executor.h"

#include <algorithm>

#include "dataplane/pipeline.h"

namespace newton::compile {

void BurstBuffers::resize(std::size_t cap) {
  capacity = cap;
  for (std::size_t s = 0; s < kNumMetadataSets; ++s) {
    keys[s].resize(cap * kNumFields);
    hash[s].resize(cap);
    state[s].resize(cap);
  }
  global.resize(cap);
  alive.resize(cap);
}

namespace {

static_assert(kKeyWords == kNumFields, "hash_key hashes a whole key row");

// H's result mapping: a digest (or direct key word) into the query's slice.
uint32_t map_hash(const ChainOp& op, uint32_t v) {
  return op.offset + (op.width == 0 ? v : v % op.width);
}

// Calls f(i) for every live lane.  The all-alive test is hoisted out of the
// lane loop, so a run nobody has stopped yet takes a branch-free sweep.
template <class F>
void for_live(std::size_t n, const uint8_t* live, bool all, F&& f) {
  if (all) {
    for (std::size_t i = 0; i < n; ++i) f(i);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      if (live[i]) f(i);
  }
}

// One op over a run's lanes.  Each case mirrors its module's execute() body
// exactly (core/modules.cpp), minus the table lookup — the rule parameters
// are already folded into the op — and with the per-packet active-bit
// guard replaced by the running chain's alive row.  Rule-hit cells advance
// by the live count, matching the interpreter's active-guarded lookups.
void run_op(const ChainOp& op, BurstBuffers& b, const Phv* phvs,
            std::size_t n) {
  uint8_t* live = b.alive.data();
  std::size_t& live_n = b.alive_n;
  const bool all = live_n == n;
  *op.hits += live_n;
  uint32_t* keys = b.keys[op.set].data();
  uint32_t* hash = b.hash[op.set].data();
  uint32_t* state = b.state[op.set].data();
  switch (op.kind) {
    case OpKind::K:
      for_live(n, live, all, [&](std::size_t i) {
        const uint32_t* src = phvs[i].pkt.fields.data();
        for (std::size_t f = 0; f < kNumFields; ++f)
          keys[i * kNumFields + f] = src[f] & op.masks[f];
      });
      break;
    case OpKind::HHash:
      for_live(n, live, all, [&](std::size_t i) {
        hash[i] = map_hash(op, hash_key(op.algo, op.seed, op.hash_base,
                                        op.cared, keys + i * kNumFields));
      });
      b.hash_lanes += live_n;
      break;
    case OpKind::HDirect:
      for_live(n, live, all, [&](std::size_t i) {
        hash[i] = map_hash(op, keys[i * kNumFields + op.direct_index]);
      });
      break;
    case OpKind::SBypass:
      for_live(n, live, all, [&](std::size_t i) { state[i] = hash[i]; });
      break;
    case OpKind::SOp: {
      RegisterArray& regs = *op.regs;
      const std::size_t size = regs.size();
      for_live(n, live, all, [&](std::size_t i) {
        const uint32_t h = hash[i];
        if (h < op.guard_lo || h > op.guard_hi) {
          state[i] = kSMissValue;
          return;
        }
        const uint32_t operand = op.operand_is_pkt_len
                                     ? phvs[i].pkt.get(Field::PktLen)
                                     : op.operand;
        const std::size_t idx = (op.index_base + (h - op.guard_lo)) % size;
        state[i] = regs.execute(op.sop, idx, operand);
      });
      break;
    }
    case OpKind::R:
      for_live(n, live, all, [&](std::size_t i) {
        const uint32_t s = state[i];
        uint32_t& g = b.global[i];
        switch (op.combine) {
          case RCombine::None: break;
          case RCombine::Set: g = s; break;
          case RCombine::Min: g = std::min(g, s); break;
          case RCombine::Max: g = std::max(g, s); break;
          case RCombine::Add: g += s; break;
          case RCombine::Sub: g -= s; break;
        }
        const uint32_t v = op.match_on_global ? g : s;
        const bool hit = v >= op.match_lo && v <= op.match_hi;
        const RAction a = hit ? op.on_match : op.on_miss;
        if (a == RAction::Continue) return;
        if ((a == RAction::Report || a == RAction::ReportStop) &&
            op.sink != nullptr) {
          ReportRecord rec;
          rec.qid = op.qid;
          rec.switch_id = op.switch_id;
          rec.ts_ns = phvs[i].pkt.ts_ns;
          std::copy_n(keys + i * kNumFields, kNumFields,
                      rec.oper_keys.begin());
          rec.hash_result = hash[i];
          rec.state_result = s;
          rec.global_result = g;
          op.sink->report(rec);
        }
        if (a == RAction::Stop || a == RAction::ReportStop) {
          live[i] = 0;
          --live_n;
        }
      });
      break;
  }
}

// Does any op read a lane before an earlier op wrote it?  When not (every
// standard suite: K fills keys, H fills hash from keys, S fills state from
// hash, R reads all three), the load phase skips zeroing the lanes — the
// interpreter's Phv::reset() zeroes are never observable.
bool lanes_need_zero(const Chain& c) {
  bool wk[kNumMetadataSets]{}, wh[kNumMetadataSets]{}, ws[kNumMetadataSets]{};
  for (const ChainOp& op : c.ops) {
    const std::size_t s = op.set;
    switch (op.kind) {
      case OpKind::K:
        wk[s] = true;
        break;
      case OpKind::HHash:
      case OpKind::HDirect:
        if (!wk[s]) return true;
        wh[s] = true;
        break;
      case OpKind::SOp:
      case OpKind::SBypass:
        if (!wh[s]) return true;
        ws[s] = true;
        break;
      case OpKind::R:
        if (!wk[s] || !wh[s] || !ws[s]) return true;
        break;
    }
  }
  return false;
}

}  // namespace

void CompiledPipeline::build(Pipeline& pipe, std::size_t burst_capacity,
                             const ExecOptions& opts) {
  enabled_ = false;
  chains_.clear();
  by_qid_.fill(nullptr);
  needs_zero_.reset();
  if (!opts.enabled) return;
  chains_ = lower(pipe);
  std::array<uint32_t, kNumMetadataSets> written{};
  for (const Chain& c : chains_) {
    by_qid_[c.qid] = &c;
    needs_zero_.set(c.qid, lanes_need_zero(c));
    for (const ChainOp& op : c.ops)
      if (op.kind == OpKind::K)
        for (std::size_t f = 0; f < kNumFields; ++f)
          if (op.masks[f] != 0) written[op.set] |= 1u << f;
  }
  // At an HHash op, each key word of its set was zeroed at load or last
  // written, masked, by some K op of a compiled chain (an earlier chain's,
  // if this one hashes a set it has not keyed).  So the words outside the
  // union of those K masks are zero, and hashing only the union is exact.
  for (Chain& c : chains_)
    for (ChainOp& op : c.ops)
      if (op.kind == OpKind::HHash) {
        op.hash_base = key_hash_base(op.algo, op.seed);
        op.cared = static_cast<uint16_t>(written[op.set]);
      }
  buffers_.resize(burst_capacity == 0 ? 1 : burst_capacity);
  enabled_ = true;
}

bool CompiledPipeline::execute_run(Phv* phvs, std::size_t n) {
  if (n == 0 || phvs[0].active_list.empty()) return false;
  const auto& list = phvs[0].active_list;
  // The run's chains in stage order (insertion sort: k is small).
  // Co-active chains occupy disjoint stage ranges, so ordering by first op
  // orders them whole.  An active query always has a chain (every branch
  // lowers to at least one rule); one without would run no op.
  std::size_t k = 0;
  bool zero = false;
  for (const uint16_t q : list) {
    zero |= needs_zero_.test(q);
    const Chain* c = by_qid_[q];
    if (c == nullptr) continue;
    std::size_t at = k++;
    for (; at > 0 && run_[at - 1]->ops.front().order > c->ops.front().order;
         --at)
      run_[at] = run_[at - 1];
    run_[at] = c;
  }
  // Load phase: mirror Phv::reset().  The global lanes are always zeroed;
  // the key/hash/state lanes only when an active chain could read one
  // before writing it.
  BurstBuffers& b = buffers_;
  std::fill_n(b.global.begin(), n, 0u);
  if (zero) {
    for (std::size_t s = 0; s < kNumMetadataSets; ++s) {
      std::fill_n(b.keys[s].begin(), n * kNumFields, 0u);
      std::fill_n(b.hash[s].begin(), n, 0u);
      std::fill_n(b.state[s].begin(), n, 0u);
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    std::fill_n(b.alive.begin(), n, uint8_t{1});
    b.alive_n = n;
    for (const ChainOp& op : run_[c]->ops) run_op(op, b, phvs, n);
  }
  return list.size() == 1;
}

}  // namespace newton::compile
