#include "core/newton_switch.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace newton {

NewtonSwitch::NewtonSwitch(uint32_t id, std::size_t num_stages,
                           ReportSink* sink, std::size_t bank_registers,
                           uint32_t latency_seed)
    : id_(id),
      pipeline_(num_stages),
      latency_(latency_seed),
      qid_used_(kMaxQueries, false) {
  inst_ = build_compact_layout(pipeline_, sink, id, bank_registers);
  bank_alloc_.reserve(num_stages);
  for (std::size_t i = 0; i < num_stages; ++i)
    bank_alloc_.emplace_back(bank_registers);
}

uint16_t NewtonSwitch::alloc_qid() {
  for (std::size_t i = 0; i < qid_used_.size(); ++i) {
    if (!qid_used_[i]) {
      qid_used_[i] = true;
      return static_cast<uint16_t>(i);
    }
  }
  throw std::runtime_error("NewtonSwitch: out of query ids");
}

void NewtonSwitch::free_qid(uint16_t q) { qid_used_.at(q) = false; }

void NewtonSwitch::set_sink(ReportSink* sink) {
  for (RModule* r : inst_.r) r->set_sink(sink);
}

NewtonSwitch::InstallResult NewtonSwitch::install(const CompiledQuery& cq,
                                                  bool resolve_offsets) {
  return install_impl(cq, resolve_offsets, /*with_init=*/true, std::nullopt);
}

NewtonSwitch::InstallResult NewtonSwitch::install_slice(
    const QuerySlice& slice, uint16_t query_uid, bool resolve_offsets) {
  SliceRt rt;
  rt.query_uid = query_uid;
  rt.index = slice.index;
  rt.final_slice = slice.final_slice;
  rt.in_hash_set = slice.in_hash_set;
  rt.in_state_set = slice.in_state_set;
  rt.out_hash_set = slice.out_hash_set;
  rt.out_state_set = slice.out_state_set;
  return install_impl(slice.part, resolve_offsets,
                      /*with_init=*/slice.index == 0, rt);
}

NewtonSwitch::InstallResult NewtonSwitch::install_impl(
    const CompiledQuery& cq, bool resolve_offsets, bool with_init,
    std::optional<SliceRt> slice_meta) {
  if (cq.num_modules() == 0)
    throw std::invalid_argument("install: empty compiled query");
  if (cq.max_stage() >= pipeline_.num_stages())
    throw std::runtime_error(
        "install: query needs stage " + std::to_string(cq.max_stage()) +
        " but switch has " + std::to_string(pipeline_.num_stages()) +
        " (use CQE slicing)");
  const uint64_t window_ns = cq.source.window_ns;
  if (!installs_.empty() && window_ns != clock_.window_ns())
    throw std::invalid_argument(
        "install: query window " + std::to_string(window_ns) +
        " ns differs from the installed queries' " +
        std::to_string(clock_.window_ns()) + " ns");

  // Work on a copy so offset resolution does not mutate the caller's query.
  CompiledQuery q = cq;
  InstallRecord rec;
  std::vector<std::pair<std::size_t, std::size_t>> new_allocs;

  auto rollback = [&]() {
    for (auto& [stage, off] : new_allocs) bank_alloc_[stage].free(off);
    for (uint16_t qid : rec.qids) free_qid(qid);
  };

  try {
    // 1. qids.
    for (std::size_t bi = 0; bi < q.branches.size(); ++bi)
      rec.qids.push_back(alloc_qid());

    // 2. Register ranges for stateful S modules.  Each S rule carries its
    // partition width from decomposition; the allocated base becomes the
    // rule's local index_base.
    for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
      for (ModuleSpec& m : q.branches[bi].modules) {
        if (m.type != ModuleType::S || m.s.bypass) continue;
        // A stateful rule must own a range and stay inside it: its guard
        // admits at most alloc_width hash values, each mapped into
        // [alloc_offset, alloc_offset + alloc_width).  Anything else could
        // write registers no segment covers, which reset_state() would then
        // never clear.
        const uint64_t span = m.s.guard_hi >= m.s.guard_lo
                                  ? uint64_t{m.s.guard_hi} - m.s.guard_lo + 1
                                  : 0;
        if (m.rule_needed && (m.alloc_width == 0 || span > m.alloc_width))
          throw std::invalid_argument(
              "install: stateful S rule at stage " + std::to_string(m.stage) +
              " is not guarded to a register allocation");
        if (m.alloc_width == 0) continue;
        if (resolve_offsets) {
          auto off = bank_alloc_[m.stage].allocate(m.alloc_width);
          if (!off)
            throw std::runtime_error("install: state bank exhausted at stage " +
                                     std::to_string(m.stage));
          m.alloc_offset = static_cast<uint32_t>(*off);
          new_allocs.push_back({static_cast<std::size_t>(m.stage), *off});
        } else {
          if (!bank_alloc_[m.stage].reserve(m.alloc_offset, m.alloc_width))
            throw std::runtime_error(
                "install: pre-resolved register range unavailable");
          new_allocs.push_back(
              {static_cast<std::size_t>(m.stage), m.alloc_offset});
        }
        m.s.index_base = m.alloc_offset;
        rec.segments.push_back({static_cast<std::size_t>(m.stage),
                                m.alloc_offset, m.alloc_width, m.s.op,
                                rec.qids[bi]});
        // Sweep the range clean: it may hold a removed query's state.
        inst_.s[m.stage]->registers().clear_range(m.alloc_offset,
                                                  m.alloc_width);
      }
    }

    // 3. Module rules.  Placeholder specs (rule_needed == false) model
    // unconfigured modules a naive composition still lays out: they occupy
    // a stage slot in the metrics but carry NO table rule.
    for (std::size_t bi = 0; bi < q.branches.size(); ++bi) {
      const uint16_t qid = rec.qids[bi];
      for (const ModuleSpec& m : q.branches[bi].modules) {
        if (!m.rule_needed) continue;
        const auto st = static_cast<std::size_t>(m.stage);
        switch (m.type) {
          case ModuleType::K: inst_.k[st]->table().insert(qid, m.k); break;
          case ModuleType::H: inst_.h[st]->table().insert(qid, m.h); break;
          case ModuleType::S: inst_.s[st]->table().insert(qid, m.s); break;
          case ModuleType::R: inst_.r[st]->table().insert(qid, m.r); break;
        }
        rec.rule_slots.push_back({m.stage, m.type});
        rec.rule_qids.push_back(qid);
      }
      if (with_init) {
        const InitEntrySpec& e = q.branches[bi].init;
        std::vector<MatchWord> key = e.key;
        // CQE first slices start an execution exactly once per path: only
        // where the packet enters the network.  Whole-query installs run
        // wherever deployed (sole model / single switch).
        key.push_back(slice_meta ? MatchWord::exact(1)
                                 : MatchWord::wildcard());
        rec.init_handles.push_back(
            init_.table().insert(std::move(key), e.priority, {{qid}}));
      }
    }
  } catch (...) {
    // Best-effort rollback of partially installed rules.
    for (std::size_t i = 0; i < rec.rule_slots.size(); ++i)
      remove_rule(rec.rule_slots[i], rec.rule_qids[i]);
    for (uint64_t h : rec.init_handles) init_.table().remove(h);
    rollback();
    throw;
  }

  rec.allocs = new_allocs;
  const uint64_t handle = next_handle_++;
  if (slice_meta) {
    slice_meta->qids = rec.qids;
    slices_[handle] = *slice_meta;
    rec.slice_rt_key = handle;
  }

  InstallResult res;
  res.handle = handle;
  res.rule_ops = rec.rule_slots.size() + rec.init_handles.size();
  res.latency_ms = latency_.batch_ms(res.rule_ops);
  res.qids = rec.qids;
  // The first install into an emptied switch may bring a new window length.
  if (window_ns != clock_.window_ns()) clock_ = WindowClock(window_ns);
  segments_.insert(segments_.end(), rec.segments.begin(), rec.segments.end());
  installs_[handle] = std::move(rec);
  return res;
}

double NewtonSwitch::remove(uint64_t handle) {
  auto it = installs_.find(handle);
  if (it == installs_.end())
    throw std::invalid_argument("remove: unknown handle");
  InstallRecord& rec = it->second;
  for (std::size_t i = 0; i < rec.rule_slots.size(); ++i)
    remove_rule(rec.rule_slots[i], rec.rule_qids[i]);
  for (uint64_t h : rec.init_handles) init_.table().remove(h);
  // Sweep the freed ranges: reset_state() only visits allocated ones.
  reset_segments(inst_.s, rec.segments);
  for (auto& [stage, off] : rec.allocs) bank_alloc_[stage].free(off);
  for (uint16_t q : rec.qids) free_qid(q);
  const std::size_t ops = rec.rule_slots.size() + rec.init_handles.size();
  if (rec.slice_rt_key) slices_.erase(*rec.slice_rt_key);
  installs_.erase(it);
  segments_.clear();
  for (const auto& [h, r] : installs_)
    segments_.insert(segments_.end(), r.segments.begin(), r.segments.end());
  return latency_.batch_ms(ops);
}

void NewtonSwitch::remove_rule(std::pair<int, ModuleType> slot,
                               uint16_t qid) {
  const auto st = static_cast<std::size_t>(slot.first);
  switch (slot.second) {
    case ModuleType::K: inst_.k[st]->table().remove(qid); break;
    case ModuleType::H: inst_.h[st]->table().remove(qid); break;
    case ModuleType::S: inst_.s[st]->table().remove(qid); break;
    case ModuleType::R: inst_.r[st]->table().remove(qid); break;
  }
}

void NewtonSwitch::roll(uint64_t ts) {
  reset_state();
  flush_telemetry();
  clock_.open(ts);
}

telemetry::Counter& NewtonSwitch::late_packets_series(
    telemetry::Registry& reg) {
  return reg.counter("newton_late_packets_total",
                     "Packets stamped before the open window, folded into it "
                     "(docs/runtime.md \"Windows\")");
}

void NewtonSwitch::flush_telemetry() {
  pipeline_.publish_telemetry();
  init_.publish_telemetry();
  if (late_packets_ != late_published_) {
    late_packets_series(telemetry::Registry::global())
        .add(late_packets_ - late_published_);
    late_published_ = late_packets_;
  }
}

void NewtonSwitch::reset_state() { reset_segments(inst_.s, segments_); }

void NewtonSwitch::reset_segments(const std::vector<SModule*>& s_by_stage,
                                  const std::vector<StateSegment>& segs) {
  for (const StateSegment& seg : segs)
    s_by_stage[seg.stage]->registers().clear_range(seg.offset, seg.width);
}

std::size_t NewtonSwitch::stray_registers() const {
  std::size_t n = 0;
  for (std::size_t st = 0; st < inst_.s.size(); ++st) {
    const RegisterArray& bank = inst_.s[st]->registers();
    std::vector<bool> owned(bank.size(), false);
    for (const StateSegment& seg : segments_)
      if (seg.stage == st)
        std::fill_n(owned.begin() + static_cast<long>(seg.offset), seg.width,
                    true);
    for (std::size_t i = 0; i < bank.size(); ++i)
      n += !owned[i] && bank.read(i) != 0;
  }
  return n;
}

NewtonSwitch::Output NewtonSwitch::process(const Packet& pkt,
                                           std::optional<SpHeader> sp_in,
                                           bool at_ingress_edge,
                                           bool dispatch_init) {
  roll_to(pkt.ts_ns);
  ++packets_forwarded_;

  Output out;
  Phv phv;
  phv.pkt = pkt;
  if (clock_.late(pkt.ts_ns)) {
    ++late_packets_;
    phv.pkt.ts_ns = clock_.start_ns();
  }
  phv.at_ingress_edge = at_ingress_edge;

  // CQE ingress: resume the execution context carried by the SP header.
  const SliceRt* resumed = nullptr;
  if (sp_in) {
    for (auto& [h, rt] : slices_) {
      if (rt.query_uid == sp_in->qid && rt.index == sp_in->next_slice) {
        resumed = &rt;
        out.sp_consumed = true;
        phv.global_result = sp_in->global_result;
        if (rt.in_hash_set)
          phv.set(static_cast<std::size_t>(*rt.in_hash_set)).hash_result =
              sp_in->hash_result;
        if (rt.in_state_set)
          phv.set(static_cast<std::size_t>(*rt.in_state_set)).state_result =
              sp_in->state_result;
        for (uint16_t q : rt.qids) phv.activate_query(q);
        break;
      }
    }
  }

  if (dispatch_init) init_.execute(phv);
  pipeline_.process_burst(&phv, 1);

  // CQE egress: snapshot results toward the next hop for every non-final
  // slice that ran with its query still live.  A resumed pass continues
  // exactly its one execution; a fresh pass may start one execution per
  // sliced query (slice 0) — each gets its own SP header.  `active` is a
  // subset of `active_list`, so a query still active here was activated.
  sp_out_.clear();
  const auto emit = [&](const SliceRt& rt) {
    if (rt.final_slice) return;
    bool still_active = false;
    for (uint16_t q : rt.qids) still_active |= phv.active.test(q);
    if (!still_active) return;
    SpHeader& sp = sp_out_.emplace_back();
    sp.qid = static_cast<uint8_t>(rt.query_uid);
    sp.next_slice = static_cast<uint8_t>(rt.index + 1);
    sp.global_result = phv.global_result;
    if (rt.out_hash_set)
      sp.hash_result = static_cast<uint16_t>(
          phv.set(static_cast<std::size_t>(*rt.out_hash_set)).hash_result);
    if (rt.out_state_set)
      sp.state_result =
          phv.set(static_cast<std::size_t>(*rt.out_state_set)).state_result;
  };
  if (resumed) {
    emit(*resumed);
  } else if (!phv.active_list.empty()) {
    for (const auto& [h, rt] : slices_)
      if (rt.index == 0) emit(rt);
  }
  out.sp_out = sp_out_;
  return out;
}

std::size_t NewtonSwitch::installed_rule_count() const {
  std::size_t n = init_.table().size();
  for (std::size_t i = 0; i < pipeline_.num_stages(); ++i)
    n += inst_.k[i]->table().size() + inst_.h[i]->table().size() +
         inst_.s[i]->table().size() + inst_.r[i]->table().size();
  return n;
}

std::size_t NewtonSwitch::slots_used() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < pipeline_.num_stages(); ++i) {
    n += inst_.k[i]->table().size() > 0;
    n += inst_.h[i]->table().size() > 0;
    n += inst_.s[i]->table().size() > 0;
    n += inst_.r[i]->table().size() > 0;
  }
  return n;
}

std::size_t NewtonSwitch::stages_used() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < pipeline_.num_stages(); ++i) {
    n += inst_.k[i]->table().size() > 0 || inst_.h[i]->table().size() > 0 ||
         inst_.s[i]->table().size() > 0 || inst_.r[i]->table().size() > 0;
  }
  return n;
}

}  // namespace newton
