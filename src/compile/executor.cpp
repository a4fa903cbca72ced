#include "compile/executor.h"

#include <algorithm>

#include "dataplane/pipeline.h"

namespace newton::compile {

void BurstBuffers::resize(std::size_t cap, std::size_t queries) {
  capacity = cap;
  for (std::size_t s = 0; s < kNumMetadataSets; ++s) {
    keys[s].resize(cap * kNumFields);
    hash[s].resize(cap);
    state[s].resize(cap);
  }
  global.resize(cap);
  alive.resize(cap * queries);
  alive_n.resize(queries);
  rows.resize(cap * kNumFields);
  digest.resize(cap);
  lane.resize(cap);
}

namespace {

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
// guard replaced by the op's query's alive row.  Rule-hit cells advance by
// the live count, matching the interpreter's active-guarded lookups.
void run_op(const ChainOp& op, BurstBuffers& b, const Phv* phvs,
            std::size_t n) {
  const std::size_t row = b.row_of[op.qid];
  uint8_t* live = b.alive.data() + row * b.capacity;
  std::size_t& live_n = b.alive_n[row];
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
      if (all) {
        hash_words_lanes(op.algo, op.seed, keys, kNumFields, kNumFields, n,
                         nullptr, hash);
        b.hash_lanes += n;
        for (std::size_t i = 0; i < n; ++i) hash[i] = map_hash(op, hash[i]);
      } else {
        // Gather the live lanes' key rows, hash them in one batch, scatter
        // the results: stopped lanes are neither hashed nor overwritten.
        std::size_t m = 0;
        for_live(n, live, false, [&](std::size_t i) {
          std::copy_n(keys + i * kNumFields, kNumFields,
                      b.rows.data() + m * kNumFields);
          b.lane[m++] = static_cast<uint32_t>(i);
        });
        hash_words_lanes(op.algo, op.seed, b.rows.data(), kNumFields,
                         kNumFields, m, nullptr, b.digest.data());
        b.hash_lanes += m;
        for (std::size_t j = 0; j < m; ++j)
          hash[b.lane[j]] = map_hash(op, b.digest[j]);
      }
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
// interpreter's Phv::reset() zeroes are never observable.  Merging keeps
// this per-chain property: a query reads a lane only while it is live, and
// its own earlier writes to that lane then happened.
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
    needs_zero_.set(c.qid, lanes_need_zero(c));
    total_ops += c.ops.size();
    coverage_.push_back({c.qid, true});
  }
  merged_.resize(total_ops);
  buffers_.resize(burst_capacity == 0 ? 1 : burst_capacity, chains_.size());
  enabled_ = true;
}

bool CompiledPipeline::execute_run(Phv* phvs, std::size_t n) {
  if (n == 0 || phvs[0].active_list.empty()) return false;
  const auto& list = phvs[0].active_list;
  const std::size_t k = list.size();
  // Load phase: mirror Phv::reset().  The global lanes and each query's
  // alive row are always (re)initialized; the key/hash/state lanes only
  // when an active chain could read one before writing it.
  BurstBuffers& b = buffers_;
  bool zero = false;
  for (std::size_t q = 0; q < k; ++q) {
    b.row_of[list[q]] = static_cast<uint16_t>(q);
    std::fill_n(b.alive.begin() + q * b.capacity, n, uint8_t{1});
    b.alive_n[q] = n;
    zero |= needs_zero_.test(list[q]);
  }
  std::fill_n(b.global.begin(), n, 0u);
  if (zero) {
    for (std::size_t s = 0; s < kNumMetadataSets; ++s) {
      std::fill_n(b.keys[s].begin(), n * kNumFields, 0u);
      std::fill_n(b.hash[s].begin(), n, 0u);
      std::fill_n(b.state[s].begin(), n, 0u);
    }
  }
  if (k == 1) {
    for (const ChainOp& op : by_qid_[list[0]]->ops) run_op(op, b, phvs, n);
    return true;
  }
  // k-way merge of the active chains into interpreter visit order:
  // ascending (stage, slot), ties broken by activation-list position —
  // exactly the order the per-table active-list loops produce.  The
  // cursor arrays live on the stack and merged_ was sized at build, so
  // nothing allocates.
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
  for (std::size_t j = 0; j < m; ++j) run_op(*merged_[j], b, phvs, n);
  return false;
}

}  // namespace newton::compile
