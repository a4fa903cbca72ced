#include "compile/executor.h"

#include <algorithm>
#include <functional>

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

// Marks every chain with an SOp whose register range overlaps another
// SOp's on the same bank.  An SOp touches index_base + (h - guard_lo) for
// h in [guard_lo, guard_hi], mod the bank size: a circular range, split
// here into at most two linear spans.  Op-major execution runs all of a
// run's packets through one op before the next, so two ops sharing a
// register would see its per-packet accesses reordered; with disjoint
// ranges (installs guard each S rule to its own slice) no register has two
// writers and the order cannot show.
std::vector<bool> overlapping(const std::vector<Chain>& chains) {
  struct Span {
    const RegisterArray* regs;
    uint64_t lo, hi;  // [lo, hi)
    std::size_t chain;
  };
  std::vector<Span> spans;
  for (std::size_t c = 0; c < chains.size(); ++c)
    for (const ChainOp& op : chains[c].ops) {
      if (op.kind != OpKind::SOp || op.guard_lo > op.guard_hi) continue;
      const uint64_t size = op.regs->size();
      const uint64_t len =
          std::min<uint64_t>(uint64_t{op.guard_hi} - op.guard_lo + 1, size);
      const uint64_t lo = op.index_base % size;
      if (lo + len <= size) {
        spans.push_back({op.regs, lo, lo + len, c});
      } else {
        spans.push_back({op.regs, lo, size, c});
        spans.push_back({op.regs, 0, lo + len - size, c});
      }
    }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.regs != b.regs)
      return std::less<const RegisterArray*>{}(a.regs, b.regs);
    return a.lo < b.lo;
  });
  // In start order, a span meets an earlier one iff it starts before the
  // furthest earlier end, and a later one iff the next span starts before
  // its own end.
  std::vector<bool> flagged(chains.size(), false);
  uint64_t reach = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i == 0 || spans[i - 1].regs != s.regs) reach = 0;
    const bool next = i + 1 < spans.size() && spans[i + 1].regs == s.regs &&
                      spans[i + 1].lo < s.hi;
    if (s.lo < reach || next) flagged[s.chain] = true;
    reach = std::max(reach, s.hi);
  }
  return flagged;
}

}  // namespace

void CompiledPipeline::build(Pipeline& pipe, std::size_t burst_capacity,
                             const ExecOptions& opts) {
  enabled_ = false;
  chains_.clear();
  by_qid_.fill(nullptr);
  needs_zero_.reset();
  compiled_.reset();
  plans_.clear();
  plan_lists_.clear();
  plan_ops_.clear();
  merged_.clear();
  overlapping_ = 0;
  if (!opts.enabled) return;
  chains_ = lower(pipe);
  // Chains that share S registers stay out of compiled_: covers() then
  // sends their packets to the interpreter.
  const std::vector<bool> flagged = overlapping(chains_);
  std::size_t kept = 0;
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    if (flagged[c]) continue;
    if (kept != c) chains_[kept] = std::move(chains_[c]);
    ++kept;
  }
  overlapping_ = chains_.size() - kept;
  chains_.resize(kept);
  std::size_t total_ops = 0;
  std::array<uint32_t, kNumMetadataSets> written{};
  for (const Chain& c : chains_) {
    by_qid_[c.qid] = &c;
    compiled_.set(c.qid);
    needs_zero_.set(c.qid, lanes_need_zero(c));
    total_ops += c.ops.size();
    for (const ChainOp& op : c.ops)
      if (op.kind == OpKind::K)
        for (std::size_t f = 0; f < kNumFields; ++f)
          if (op.masks[f] != 0) written[op.set] |= 1u << f;
  }
  // At an HHash op, each key word of its set was zeroed at load or last
  // written, masked, by some K op of a compiled chain (possibly another
  // query's, run between this query's K and H).  So the words outside the
  // union of those K masks are zero, and hashing only the union is exact;
  // the op's own K mask alone would not be.
  for (Chain& c : chains_)
    for (ChainOp& op : c.ops)
      if (op.kind == OpKind::HHash) {
        op.hash_base = key_hash_base(op.algo, op.seed);
        op.cared = static_cast<uint16_t>(written[op.set]);
      }
  plans_.reserve(kPlanCapacity);
  plan_lists_.reserve(kPlanCapacity * chains_.size());
  plan_ops_.reserve(kPlanCapacity * total_ops);
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
  // Execute this activation list's plan, or, with the plan table full, a
  // scratch merge of the same op order.
  const ChainOp* const* prog = merged_.data();
  std::size_t m = 0;
  if (const Plan* p = plan_for(list.begin(), k)) {
    prog = plan_ops_.data() + p->ops_at;
    m = p->m;
  } else {
    ++fallback_runs_;
    m = merge(list.begin(), k, merged_.data());
  }
  for (std::size_t j = 0; j < m; ++j) run_op(*prog[j], b, phvs, n);
  return false;
}

const CompiledPipeline::Plan* CompiledPipeline::plan_for(const uint16_t* list,
                                                         std::size_t k) {
  for (const Plan& p : plans_)
    if (p.k == k && std::equal(list, list + k, plan_lists_.data() + p.list_at))
      return &p;
  if (plans_.size() == kPlanCapacity) return nullptr;
  // Every arena was reserved at build for kPlanCapacity plans: nothing
  // below reallocates.
  const std::size_t m = merge(list, k, merged_.data());
  Plan& p = plans_.emplace_back();
  p.list_at = static_cast<uint32_t>(plan_lists_.size());
  p.k = static_cast<uint32_t>(k);
  p.ops_at = static_cast<uint32_t>(plan_ops_.size());
  p.m = static_cast<uint32_t>(m);
  plan_lists_.insert(plan_lists_.end(), list, list + k);
  plan_ops_.insert(plan_ops_.end(), merged_.begin(), merged_.begin() + m);
  return &p;
}

std::size_t CompiledPipeline::merge(const uint16_t* list, std::size_t k,
                                    const ChainOp** out) const {
  // Interpreter visit order: ascending (stage, slot), ties broken by
  // activation-list position — exactly the order the per-table
  // active-list loops produce.  The cursor arrays live on the stack.
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
      if (cur[q] != end[q] && cur[q]->order == best) out[m++] = cur[q]++;
  }
  return m;
}

}  // namespace newton::compile
