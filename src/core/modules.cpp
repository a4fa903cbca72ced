#include "core/modules.h"

#include "sketch/hash.h"
#include "telemetry/telemetry.h"

namespace newton {

namespace {

// One rule-hit series per module type: a hit is a lookup that found an
// installed rule for an active query, i.e. actual per-packet work done on
// behalf of a query.  Modules accumulate hits in a plain per-instance
// field and fold the delta in here when publish_telemetry() runs (window
// barriers / explicit flushes), so the packet path never touches an atomic.
telemetry::Counter& rule_hits(const char* module_type) {
  return telemetry::Registry::global().counter(
      "newton_module_rule_hits_total",
      "Module rule lookups that matched an installed rule",
      {{"module", module_type}});
}

}  // namespace

void KModule::execute(Phv& phv) {
  for (uint16_t qid : phv.active_list) {
    if (!phv.active.test(qid)) continue;
    const KConfig* cfg = table_.lookup(qid);
    if (!cfg) continue;
    ++hits_;
    MetadataSet& set = phv.set(cfg->set);
    for (std::size_t f = 0; f < kNumFields; ++f)
      set.keys[f] = phv.pkt.fields[f] & cfg->masks[f];
  }
}

void HModule::execute(Phv& phv) {
  for (uint16_t qid : phv.active_list) {
    if (!phv.active.test(qid)) continue;
    const HConfig* cfg = table_.lookup(qid);
    if (!cfg) continue;
    ++hits_;
    MetadataSet& set = phv.set(cfg->set);
    uint32_t v;
    if (cfg->direct) {
      v = set.keys[index(cfg->direct_field)];
    } else {
      v = hash_words(cfg->algo, cfg->seed,
                     std::span<const uint32_t>(set.keys.data(), kNumFields));
    }
    // width == 0 disables the modulus (direct/pass-through range).
    set.hash_result = cfg->offset + (cfg->width == 0 ? v : v % cfg->width);
  }
}

void SModule::execute(Phv& phv) {
  for (uint16_t qid : phv.active_list) {
    if (!phv.active.test(qid)) continue;
    const SConfig* cfg = table_.lookup(qid);
    if (!cfg) continue;
    ++hits_;
    MetadataSet& set = phv.set(cfg->set);
    if (cfg->bypass) {
      set.state_result = set.hash_result;
      continue;
    }
    if (set.hash_result < cfg->guard_lo || set.hash_result > cfg->guard_hi) {
      // Another partition of this row owns the index; contribute the
      // min-combine identity.
      set.state_result = kSMissValue;
      continue;
    }
    const uint32_t operand = cfg->operand_is_pkt_len
                                 ? phv.pkt.get(Field::PktLen)
                                 : cfg->operand;
    const std::size_t idx =
        (cfg->index_base + (set.hash_result - cfg->guard_lo)) % regs_.size();
    set.state_result = regs_.execute(cfg->op, idx, operand);
  }
}

void RModule::act(Phv& phv, uint16_t qid, const RConfig& cfg, RAction a) {
  if (a == RAction::Continue) return;
  if (a == RAction::Report || a == RAction::ReportStop) {
    if (sink_ != nullptr) {
      const MetadataSet& set = phv.set(cfg.set);
      ReportRecord rec;
      rec.qid = qid;
      rec.switch_id = switch_id_;
      rec.ts_ns = phv.pkt.ts_ns;
      rec.oper_keys = set.keys;
      rec.hash_result = set.hash_result;
      rec.state_result = set.state_result;
      rec.global_result = phv.global_result;
      sink_->report(rec);
    }
  }
  if (a == RAction::Stop || a == RAction::ReportStop) phv.stop_query(qid);
}

void RModule::execute(Phv& phv) {
  for (uint16_t qid : phv.active_list) {
    if (!phv.active.test(qid)) continue;
    const RConfig* cfg = table_.lookup(qid);
    if (!cfg) continue;
    ++hits_;
    const MetadataSet& set = phv.set(cfg->set);
    const uint32_t s = set.state_result;
    switch (cfg->combine) {
      case RCombine::None: break;
      case RCombine::Set: phv.global_result = s; break;
      case RCombine::Min:
        phv.global_result = std::min(phv.global_result, s);
        break;
      case RCombine::Max:
        phv.global_result = std::max(phv.global_result, s);
        break;
      case RCombine::Add: phv.global_result += s; break;
      case RCombine::Sub: phv.global_result -= s; break;
    }
    const uint32_t v = cfg->match_on_global ? phv.global_result : s;
    const bool hit = v >= cfg->match_lo && v <= cfg->match_hi;
    act(phv, qid, *cfg, hit ? cfg->on_match : cfg->on_miss);
  }
}

InitModule::Key InitModule::key_of(const Packet& p, bool at_ingress) {
  return {p.sip(),   p.dip(),       p.sport(),
          p.dport(), p.proto(),     p.tcp_flags(),
          at_ingress ? 1u : 0u};
}

void InitModule::execute(Phv& phv) {
  // Dispatch to EVERY query watching this traffic class.  (Hardware
  // materializes intersection entries whose action carries the merged qid
  // chain; lookup_all walks that cross-product.)  Key and results live in
  // inline/member storage — nothing is heap-allocated per packet.
  const Key key = key_of(phv.pkt, phv.at_ingress_edge);
  const std::size_t n =
      table_.lookup_all(key, scratch_.data(), scratch_.size());
  hits_ += n;
  for (std::size_t i = 0; i < n; ++i)
    for (uint16_t q : scratch_[i]->qids) phv.activate_query(q);
}

namespace {

// Stage-resolved companion series.  Compact-layout instances are named
// "<type>@s<stage>" (core/layout.cpp); the suffix keys a per-(module, stage)
// child used by the differential fuzzer as its coverage bitmap
// (docs/difftest.md).  Instances without the suffix (custom layouts) only
// feed the per-type series.
telemetry::Counter* stage_rule_hits(const char* module_type,
                                    const std::string& instance) {
  const std::size_t at = instance.rfind("@s");
  if (at == std::string::npos) return nullptr;
  return &telemetry::Registry::global().counter(
      "newton_module_stage_rule_hits_total",
      "Module rule hits by module type and pipeline stage",
      {{"module", module_type}, {"stage", instance.substr(at + 2)}});
}

void publish_hits(const char* module_type, const std::string& instance,
                  uint64_t& hits, uint64_t& published,
                  TableProgram::HitSeries& series) {
  if (hits == published) return;
  if (series.type == nullptr) {
    series.type = &rule_hits(module_type);
    series.stage = stage_rule_hits(module_type, instance);
  }
  series.type->add(hits - published);
  if (series.stage != nullptr) series.stage->add(hits - published);
  published = hits;
}

}  // namespace

void KModule::publish_telemetry() {
  publish_hits("K", name_, hits_, hits_published_, hit_series_);
}
void HModule::publish_telemetry() {
  publish_hits("H", name_, hits_, hits_published_, hit_series_);
}
void SModule::publish_telemetry() {
  publish_hits("S", name_, hits_, hits_published_, hit_series_);
}
void RModule::publish_telemetry() {
  publish_hits("R", name_, hits_, hits_published_, hit_series_);
}
void InitModule::publish_telemetry() {
  publish_hits("init", name_, hits_, hits_published_, hit_series_);
}

// ---------------------------------------------------------------------------
// Resource footprints (Table 3 per-module rows).  Derived from entry widths
// of the modeled tables; constants carry the derivation.
// ---------------------------------------------------------------------------

ResourceVec k_module_resources() {
  ResourceVec r;
  r.crossbar_bytes = 2;   // match key: 16-bit query id
  // 256 entries x (9 field masks x 4B + 6B overhead) x ~4x cuckoo-way and
  // word-alignment overhead ~= 43 KB.
  r.sram_kb = 43;
  r.tcam_kb = 0;
  r.vliw_slots = 5;       // 9 per-field AND ops, 2 packed per slot
  r.hash_bits = 25;       // exact-match cuckoo hashing of the key
  r.salus = 0;
  r.gateways = 4;         // per-set activity predication
  return r;
}

ResourceVec h_module_resources() {
  ResourceVec r;
  r.crossbar_bytes = 22;  // reads the full operation-key bytes (19B) + qid
  r.sram_kb = 22;         // 256 entries x (seed + range + mode params)
  r.tcam_kb = 0;
  r.vliw_slots = 1;       // offset add
  r.hash_bits = 36;       // 32-bit hash + range scaling
  r.salus = 0;
  r.gateways = 0;
  return r;
}

ResourceVec s_module_resources() {
  ResourceVec r;
  r.crossbar_bytes = 10;  // hash result + qid + pkt_len operand
  // Register bank: 48K x 4B = 192 KB, plus the 256-entry config table.
  r.sram_kb = 218;
  r.tcam_kb = 6.4;        // ternary operand/op selection
  r.vliw_slots = 3;
  r.hash_bits = 50;       // register address distribution
  r.salus = 1;
  r.gateways = 0;
  return r;
}

ResourceVec r_module_resources() {
  ResourceVec r;
  r.crossbar_bytes = 5;   // state/global result + qid
  r.sram_kb = 22;         // action data
  // 256 ternary entries x (qid + 32-bit value + 32-bit mask + overhead).
  r.tcam_kb = 12.8;
  r.vliw_slots = 15;      // min/max/add/sub combine + report mirror setup
  r.hash_bits = 0;
  r.salus = 0;
  r.gateways = 0;
  return r;
}

ResourceVec init_module_resources() {
  ResourceVec r;
  r.crossbar_bytes = 13;  // 5-tuple + flags
  r.sram_kb = 4;          // action data (query chains)
  r.tcam_kb = 8;          // 256 ternary entries x 26B
  r.vliw_slots = 2;
  r.hash_bits = 0;
  r.salus = 0;
  r.gateways = 1;
  return r;
}

ResourceVec KModule::resources() const { return k_module_resources(); }
ResourceVec HModule::resources() const { return h_module_resources(); }
ResourceVec SModule::resources() const { return s_module_resources(); }
ResourceVec RModule::resources() const { return r_module_resources(); }
ResourceVec InitModule::resources() const { return init_module_resources(); }

}  // namespace newton
