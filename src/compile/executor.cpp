#include "compile/executor.h"

#include <algorithm>

#include "dataplane/pipeline.h"

namespace newton::compile {

void BurstBuffers::resize(std::size_t cap) {
  for (std::size_t s = 0; s < kNumMetadataSets; ++s) {
    keys[s].resize(cap * kNumFields);
    hash[s].resize(cap);
    state[s].resize(cap);
  }
  global.resize(cap);
  alive.resize(cap);
  lane.resize(cap);
}

namespace {

// H's result mapping: a digest (or direct key word) into the query's slice.
uint32_t map_hash(const ChainOp& op, uint32_t v) {
  return op.offset + (op.width == 0 ? v : v % op.width);
}

// ---------------------------------------------------------------------------
// Generic compiled path: merged ops executed op-major directly on the PHVs.
// Each case mirrors its module's execute() body exactly (core/modules.cpp),
// minus the table lookup — the rule parameters are already folded into the
// op.  The active-bit guard stays per packet: a Stop from an earlier R in
// the merged sequence must silence the rest of the chain, as it does when
// the interpreter's tables re-test the bit.
// ---------------------------------------------------------------------------

void generic_op(const ChainOp& op, Phv* phvs, std::size_t n,
                BurstBuffers& b) {
  uint64_t hits = 0;
  switch (op.kind) {
    case OpKind::K:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        for (std::size_t f = 0; f < kNumFields; ++f)
          set.keys[f] = p.pkt.fields[f] & op.masks[f];
      }
      break;
    case OpKind::HHash: {
      // Gather the staged keys of the lanes where the query is still active
      // into contiguous rows, hash them in one batch, scatter the results.
      // Lanes an earlier R stopped are not hashed at all.
      uint32_t* rows = b.keys[op.set].data();
      uint32_t* digest = b.hash[op.set].data();
      for (std::size_t i = 0; i < n; ++i) {
        if (!phvs[i].active.test(op.qid)) continue;
        std::copy_n(phvs[i].sets[op.set].keys.data(), kNumFields,
                    rows + hits * kNumFields);
        b.lane[hits++] = static_cast<uint32_t>(i);
      }
      hash_words_lanes(op.algo, op.seed, rows, kNumFields, kNumFields, hits,
                       nullptr, digest);
      b.hash_lanes += hits;
      for (std::size_t j = 0; j < hits; ++j)
        phvs[b.lane[j]].sets[op.set].hash_result = map_hash(op, digest[j]);
      break;
    }
    case OpKind::HDirect:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        set.hash_result = map_hash(op, set.keys[op.direct_index]);
      }
      break;
    case OpKind::SBypass:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        set.state_result = set.hash_result;
      }
      break;
    case OpKind::SOp: {
      RegisterArray& regs = *op.regs;
      const std::size_t size = regs.size();
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        MetadataSet& set = p.sets[op.set];
        if (set.hash_result < op.guard_lo || set.hash_result > op.guard_hi) {
          set.state_result = kSMissValue;
          continue;
        }
        const uint32_t operand = op.operand_is_pkt_len
                                     ? p.pkt.get(Field::PktLen)
                                     : op.operand;
        const std::size_t idx =
            (op.index_base + (set.hash_result - op.guard_lo)) % size;
        set.state_result = regs.execute(op.sop, idx, operand);
      }
      break;
    }
    case OpKind::R:
      for (std::size_t i = 0; i < n; ++i) {
        Phv& p = phvs[i];
        if (!p.active.test(op.qid)) continue;
        ++hits;
        const MetadataSet& set = p.sets[op.set];
        const uint32_t s = set.state_result;
        switch (op.combine) {
          case RCombine::None: break;
          case RCombine::Set: p.global_result = s; break;
          case RCombine::Min:
            p.global_result = std::min(p.global_result, s);
            break;
          case RCombine::Max:
            p.global_result = std::max(p.global_result, s);
            break;
          case RCombine::Add: p.global_result += s; break;
          case RCombine::Sub: p.global_result -= s; break;
        }
        const uint32_t v = op.match_on_global ? p.global_result : s;
        const bool hit = v >= op.match_lo && v <= op.match_hi;
        const RAction a = hit ? op.on_match : op.on_miss;
        if (a == RAction::Continue) continue;
        if ((a == RAction::Report || a == RAction::ReportStop) &&
            op.sink != nullptr) {
          ReportRecord rec;
          rec.qid = op.qid;
          rec.switch_id = op.switch_id;
          rec.ts_ns = p.pkt.ts_ns;
          rec.oper_keys = set.keys;
          rec.hash_result = set.hash_result;
          rec.state_result = s;
          rec.global_result = p.global_result;
          op.sink->report(rec);
        }
        if (a == RAction::Stop || a == RAction::ReportStop)
          p.stop_query(op.qid);
      }
      break;
  }
  *op.hits += hits;
}

// ---------------------------------------------------------------------------
// Fused path: one executor per registered chain shape, ops dispatched at
// compile time over the SoA burst buffers.  K, H and the bypass move run
// unconditionally across the run — dead (stopped) lanes compute results
// nothing will read, which costs less than a branch per lane —
// while everything with side effects outside the buffers (SALU register
// ops, report emission) honors the alive mask strictly.  Rule-hit cells
// advance by the alive count, matching the interpreter's active-guarded
// lookups.
// ---------------------------------------------------------------------------

template <OpKind KIND>
void fused_op(const ChainOp& op, BurstBuffers& b, const Phv* phvs,
              std::size_t n);

template <>
void fused_op<OpKind::K>(const ChainOp& op, BurstBuffers& b, const Phv* phvs,
                         std::size_t n) {
  *op.hits += b.alive_n;
  uint32_t* dst = b.keys[op.set].data();
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t* src = phvs[i].pkt.fields.data();
    for (std::size_t f = 0; f < kNumFields; ++f)
      dst[i * kNumFields + f] = src[f] & op.masks[f];
  }
}

template <>
void fused_op<OpKind::HHash>(const ChainOp& op, BurstBuffers& b, const Phv*,
                             std::size_t n) {
  *op.hits += b.alive_n;
  uint32_t* hash = b.hash[op.set].data();
  hash_words_lanes(op.algo, op.seed, b.keys[op.set].data(), kNumFields,
                   kNumFields, n, nullptr, hash);
  b.hash_lanes += n;
  for (std::size_t i = 0; i < n; ++i) hash[i] = map_hash(op, hash[i]);
}

template <>
void fused_op<OpKind::HDirect>(const ChainOp& op, BurstBuffers& b, const Phv*,
                               std::size_t n) {
  *op.hits += b.alive_n;
  const uint32_t* keys = b.keys[op.set].data();
  uint32_t* hash = b.hash[op.set].data();
  for (std::size_t i = 0; i < n; ++i)
    hash[i] = map_hash(op, keys[i * kNumFields + op.direct_index]);
}

template <>
void fused_op<OpKind::SBypass>(const ChainOp& op, BurstBuffers& b, const Phv*,
                               std::size_t n) {
  *op.hits += b.alive_n;
  const uint32_t* hash = b.hash[op.set].data();
  uint32_t* state = b.state[op.set].data();
  for (std::size_t i = 0; i < n; ++i) state[i] = hash[i];
}

template <>
void fused_op<OpKind::SOp>(const ChainOp& op, BurstBuffers& b,
                           const Phv* phvs, std::size_t n) {
  *op.hits += b.alive_n;
  RegisterArray& regs = *op.regs;
  uint32_t* state = b.state[op.set].data();
  const std::size_t size = regs.size();
  const uint32_t* hash = b.hash[op.set].data();
  for (std::size_t i = 0; i < n; ++i) {
    if (!b.alive[i]) continue;
    const uint32_t h = hash[i];
    if (h < op.guard_lo || h > op.guard_hi) {
      state[i] = kSMissValue;
      continue;
    }
    const uint32_t operand = op.operand_is_pkt_len
                                 ? phvs[i].pkt.get(Field::PktLen)
                                 : op.operand;
    const std::size_t idx = (op.index_base + (h - op.guard_lo)) % size;
    state[i] = regs.execute(op.sop, idx, operand);
  }
}

template <>
void fused_op<OpKind::R>(const ChainOp& op, BurstBuffers& b, const Phv* phvs,
                         std::size_t n) {
  *op.hits += b.alive_n;
  const uint32_t* keys = b.keys[op.set].data();
  const uint32_t* hash = b.hash[op.set].data();
  const uint32_t* state = b.state[op.set].data();
  for (std::size_t i = 0; i < n; ++i) {
    if (!b.alive[i]) continue;
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
    if (a == RAction::Continue) continue;
    if ((a == RAction::Report || a == RAction::ReportStop) &&
        op.sink != nullptr) {
      ReportRecord rec;
      rec.qid = op.qid;
      rec.switch_id = op.switch_id;
      rec.ts_ns = phvs[i].pkt.ts_ns;
      std::copy_n(keys + i * kNumFields, kNumFields, rec.oper_keys.begin());
      rec.hash_result = hash[i];
      rec.state_result = s;
      rec.global_result = g;
      op.sink->report(rec);
    }
    if (a == RAction::Stop || a == RAction::ReportStop) {
      b.alive[i] = 0;
      --b.alive_n;
    }
  }
}

// ---------------------------------------------------------------------------
// Compile-time shape registry (the CommRaT static-dispatch idiom): each
// entry instantiates the full op sequence of one chain shape, so executing
// a registered chain is a straight-line call with zero per-op dispatch.
// The shapes below cover the suites the query compiler emits today —
// filter (K,HDirect,SBypass,R), map/export (K,R), sketch/distinct/reduce
// (K,HHash,SOp,R) incl. two-bank row partitions (…,SOp,SOp,…) — and their
// two-suite compositions used by the standard bench queries and the
// detector library.  An unlisted shape still runs compiled, through the
// generic op loop above.
// ---------------------------------------------------------------------------

template <OpKind... Ks>
struct ShapeRunner {
  static void run(const Chain& c, BurstBuffers& b, const Phv* phvs,
                  std::size_t n) {
    std::size_t i = 0;
    (fused_op<Ks>(c.ops[i++], b, phvs, n), ...);
  }
};

struct ShapeEntry {
  Signature sig;
  FusedFn fn;
};

template <OpKind... Ks>
constexpr ShapeEntry shape() {
  return {pack_signature<Ks...>(), &ShapeRunner<Ks...>::run};
}

constexpr OpKind oK = OpKind::K;
constexpr OpKind oH = OpKind::HHash;
constexpr OpKind oD = OpKind::HDirect;
constexpr OpKind oS = OpKind::SOp;
constexpr OpKind oB = OpKind::SBypass;
constexpr OpKind oR = OpKind::R;

constexpr ShapeEntry kShapes[] = {
    // One suite.
    shape<oK, oR>(),
    shape<oK, oH, oS, oR>(),
    shape<oK, oH, oS, oS, oR>(),
    shape<oK, oH, oB, oR>(),
    shape<oK, oD, oB, oR>(),
    shape<oK, oD, oS, oR>(),
    // Two suites (filter/distinct feeding a reduce, and vice versa).
    shape<oK, oH, oS, oR, oK, oH, oS, oR>(),
    shape<oK, oH, oS, oR, oK, oH, oS, oS, oR>(),
    shape<oK, oH, oS, oS, oR, oK, oH, oS, oR>(),
    shape<oK, oH, oS, oS, oR, oK, oH, oS, oS, oR>(),
    shape<oK, oD, oB, oR, oK, oH, oS, oR>(),
    shape<oK, oH, oB, oR, oK, oH, oS, oR>(),
    shape<oK, oH, oS, oR, oK, oD, oB, oR>(),
    shape<oK, oH, oS, oR, oK, oR>(),
    shape<oK, oR, oK, oH, oS, oR>(),
    // Three suites (filter -> distinct -> reduce pipelines).
    shape<oK, oD, oB, oR, oK, oH, oS, oR, oK, oH, oS, oR>(),
    shape<oK, oH, oS, oR, oK, oH, oS, oR, oK, oH, oS, oR>(),
    // The evaluation-query shapes as the scheduler actually interleaves
    // them across stages (slot-major within a stage, so suites overlap):
    // q1 new-TCP — two K tables up front, the per-row H/S pairs split, a
    // three-R tail (per-row combines + the match/report rule).
    shape<oK, oK, oH, oH, oS, oS, oR, oR, oR>(),
    // q3 super-spreader / q5 UDP-DDoS — two-phase distinct->reduce over
    // two sketch rows, fully interleaved by the stage packer.
    shape<oK, oK, oH, oK, oH, oS, oK, oH, oS, oR, oH, oR, oS, oS, oR, oR,
          oR>(),
};

FusedFn find_shape(Signature sig) {
  if (sig == 0) return nullptr;
  for (const ShapeEntry& e : kShapes)
    if (e.sig == sig) return e.fn;
  return nullptr;
}

// Does any op read a lane before an earlier op wrote it?  When not (every
// standard suite: K fills keys, H fills hash from keys, S fills state from
// hash, R reads all three), the fused load phase skips zeroing the lanes —
// the interpreter's Phv::reset() zeroes are never observable.
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
  fused_.fill(nullptr);
  fused_zero_.reset();
  compiled_.reset();
  coverage_.clear();
  merged_.clear();
  if (!opts.enabled) return;
  Lowering l = lower(pipe);
  if (!l.ok) return;
  chains_ = std::move(l.chains);
  std::size_t total_ops = 0;
  for (const Chain& c : chains_) {
    by_qid_[c.qid] = &c;
    compiled_.set(c.qid);
    total_ops += c.ops.size();
    fused_[c.qid] = find_shape(c.signature);
    if (fused_[c.qid] != nullptr && lanes_need_zero(c))
      fused_zero_.set(c.qid);
    coverage_.push_back({c.qid, true, fused_[c.qid] != nullptr});
  }
  merged_.resize(total_ops);
  buffers_.resize(burst_capacity == 0 ? 1 : burst_capacity);
  enabled_ = true;
}

bool CompiledPipeline::execute_run(Phv* phvs, std::size_t n) {
  if (n == 0) return false;
  const Phv& shape = phvs[0];
  if (shape.active_list.size() == 1) {
    const Chain* c = by_qid_[shape.active_list[0]];
    if (c != nullptr && execute_fused(*c, phvs, n)) return true;
  }
  execute_generic(shape, phvs, n);
  return false;
}

bool CompiledPipeline::execute_fused(const Chain& c, Phv* phvs,
                                     std::size_t n) {
  const FusedFn fn = fused_[c.qid];
  if (fn == nullptr) return false;
  BurstBuffers& b = buffers_;
  // Load phase: mirror Phv::reset().  The global/alive lanes are always
  // (re)initialized; the keys/hash/state lanes only when this chain could
  // read one before writing it (lanes_need_zero at build).
  b.alive_n = n;
  std::fill_n(b.alive.begin(), n, uint8_t{1});
  std::fill_n(b.global.begin(), n, 0u);
  if (fused_zero_.test(c.qid)) {
    for (std::size_t s = 0; s < kNumMetadataSets; ++s) {
      std::fill_n(b.keys[s].begin(), n * kNumFields, 0u);
      std::fill_n(b.hash[s].begin(), n, 0u);
      std::fill_n(b.state[s].begin(), n, 0u);
    }
  }
  fn(c, b, phvs, n);
  return true;
}

void CompiledPipeline::execute_generic(const Phv& shape, Phv* phvs,
                                       std::size_t n) {
  // k-way merge of the active chains into interpreter visit order:
  // ascending (stage, slot), ties broken by activation-list position —
  // exactly the order the per-table active-list loops produce.  The
  // cursor arrays live on the stack and merged_ was sized at build, so
  // nothing allocates.
  const auto& list = shape.active_list;
  const std::size_t k = list.size();
  const ChainOp* cur[kMaxQueries];
  const ChainOp* end[kMaxQueries];
  for (std::size_t q = 0; q < k; ++q) {
    const Chain* c = by_qid_[list[q]];
    cur[q] = c->ops.data();
    end[q] = c->ops.data() + c->ops.size();
  }
  std::size_t m = 0;
  while (true) {
    uint32_t best = UINT32_MAX;
    for (std::size_t q = 0; q < k; ++q)
      if (cur[q] != end[q] && cur[q]->order < best) best = cur[q]->order;
    if (best == UINT32_MAX) break;
    for (std::size_t q = 0; q < k; ++q)
      if (cur[q] != end[q] && cur[q]->order == best) merged_[m++] = cur[q]++;
  }
  for (std::size_t j = 0; j < m; ++j)
    generic_op(*merged_[j], phvs, n, buffers_);
}

}  // namespace newton::compile
