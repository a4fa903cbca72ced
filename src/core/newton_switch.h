// A Newton-enabled switch: the compact module layout loaded into a pipeline
// at initialization time, plus the runtime rule plane — query install,
// update and removal never touch the P4 program, so packet forwarding is
// never interrupted (§3, §6.1).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/compose.h"
#include "core/cqe.h"
#include "core/layout.h"
#include "core/range_alloc.h"
#include "core/window.h"
#include "dataplane/pipeline.h"
#include "dataplane/rule_latency.h"
#include "packet/sp_header.h"

namespace newton {

namespace telemetry {
class Counter;
class Registry;
}  // namespace telemetry

class NewtonSwitch {
 public:
  explicit NewtonSwitch(uint32_t id,
                        std::size_t num_stages = kStagesPerPipeline,
                        ReportSink* sink = nullptr,
                        std::size_t bank_registers = kStateBankRegisters,
                        uint32_t latency_seed = 42);

  NewtonSwitch(const NewtonSwitch&) = delete;
  NewtonSwitch& operator=(const NewtonSwitch&) = delete;

  struct InstallResult {
    uint64_t handle = 0;
    double latency_ms = 0;       // modeled control-channel cost
    std::size_t rule_ops = 0;    // rules written
    std::vector<uint16_t> qids;  // local qid per branch
  };

  // Install a whole compiled query.  Register offsets are resolved against
  // this switch's state banks unless `resolve_offsets` is false (then the
  // specs must carry pre-resolved allocations, which are reserved).  The
  // switch runs the installed queries' window (`cq.source.window_ns`): an
  // install into an empty switch adopts it, and a query whose window differs
  // from the installed ones' throws std::invalid_argument with nothing
  // installed (admission refuses it first as kWindowMismatch).  So does a
  // query that breaks the overlap rule (core/overlap.h): a branch that can
  // match a packet another whole install's branch (or a sibling) matches,
  // in stages that meet that branch's, is refused with the rule's
  // diagnostic.  Controller and deploy_sole chain queries so they never
  // are.  `replaces` names an installed handle the rule skips: the copy a
  // compaction move installs the query beside, then withdraws.
  InstallResult install(const CompiledQuery& cq, bool resolve_offsets = true,
                        uint64_t replaces = 0);

  // Install one CQE slice of query `query_uid`.  Slices with index > 0 get
  // no newton_init entry: they are activated by the SP header only.  The
  // overlap rule does not see slices (a fleet counts the slice 0s that
  // share traffic instead, NetworkController::ingress_shared_queries).
  InstallResult install_slice(const QuerySlice& slice, uint16_t query_uid,
                              bool resolve_offsets = true);

  // Remove an installed query/slice; returns the modeled latency (ms).
  double remove(uint64_t handle);

  struct Output {
    // CQE snapshots toward the next hop, one per execution this pass left
    // unfinished: at most one on a resumed pass, one per sliced query a
    // fresh ingress pass started.  Points into a buffer the switch reuses,
    // so it stays valid until the switch's next process().
    std::span<const SpHeader> sp_out;
    // True if this switch hosted the slice named by sp_in and executed it
    // (the incoming header must not be forwarded further).
    bool sp_consumed = false;
  };

  // Run one packet through newton_init and the pipeline.  `sp_in` is the
  // result-snapshot header decoded from the wire (CQE); `at_ingress_edge`
  // says whether the packet entered the network at this switch (arrived on
  // a host-facing port) — CQE first slices only dispatch there.  A hop that
  // resumes several carried SP headers runs one pass per header, but the
  // packet is dispatched by newton_init only once: every pass after the
  // first sets `dispatch_init` false and runs only the resumed slice.
  // Only the dispatching pass counts the packet (packets_forwarded(),
  // late_packets(), the pipeline's packet and stage series).
  // A packet stamped before the open window is folded into it: the PHV's
  // copy carries the open window's start as its timestamp (core/window.h).
  Output process(const Packet& pkt, std::optional<SpHeader> sp_in = {},
                 bool at_ingress_edge = true, bool dispatch_init = true);

  // --- windows (stateful primitives reset every window, §6) ---
  // Close the open window if `now_ns` lies past it, as a packet stamped
  // `now_ns` would.  A fleet hop rolls to the network's latest timestamp
  // before processing, so every hop folds a late packet as one switch
  // would (docs/fleet.md).
  void roll_to(uint64_t now_ns) {
    if (clock_.rolls(now_ns)) roll(now_ns);
  }
  // Packets folded into a later open window (stamped before it), counted
  // into newton_late_packets_total at every flush_telemetry().
  uint64_t late_packets() const { return late_packets_; }
  // The newton_late_packets_total series of `reg`; switches and the sharded
  // runtime count into the same one.
  static telemetry::Counter& late_packets_series(telemetry::Registry& reg);
  // Zero every allocated register slice.  Registers outside the allocated
  // slices are always zero (install sweeps a range it allocates, remove()
  // sweeps the range it frees, and every installed S rule is guarded to its
  // allocation), so this zeroes the whole bank set in O(allocated state).
  void reset_state();

  // One allocated stateful register slice of an installed query: where it
  // lives, which SALU op writes it, and which branch (qid) owns it.  The
  // sharded runtime uses this as the merge plan when it folds per-worker
  // bank replicas back together at a window boundary (Add-written slices
  // merge by sum, Or-written by or, Write by max).
  struct StateSegment {
    std::size_t stage = 0;
    std::size_t offset = 0;
    std::size_t width = 0;
    SaluOp op = SaluOp::Add;
    uint16_t qid = 0;
  };
  // In install order.
  const std::vector<StateSegment>& state_segments() const {
    return segments_;
  }
  // The one bank reset: zero `segs` in the banks `s_by_stage` (indexed by
  // stage; nullptr where a stage has no S module).  The switch, the sharded
  // runtime's primary and every worker replica reset through it.
  static void reset_segments(const std::vector<SModule*>& s_by_stage,
                             const std::vector<StateSegment>& segs);
  // Non-zero registers that no allocated segment covers: always 0, the
  // invariant reset_state() relies on (the difftest churn axis and the
  // bank-hygiene tests check it).
  std::size_t stray_registers() const;

  // --- introspection ---
  uint32_t id() const { return id_; }
  std::size_t num_stages() const { return pipeline_.num_stages(); }
  uint64_t packets_forwarded() const { return packets_forwarded_; }
  std::size_t installed_rule_count() const;
  // Distinct (stage, module-type) slots holding at least one rule, and
  // distinct stages used — the resource metrics of Fig. 16.
  std::size_t slots_used() const;
  std::size_t stages_used() const;
  void set_sink(ReportSink* sink);
  InitModule& init_table() { return init_; }
  const InitModule& init_table() const { return init_; }
  const Pipeline& pipeline() const { return pipeline_; }
  // The installed queries' window length (the last one while empty).
  uint64_t window_ns() const { return clock_.window_ns(); }
  // Publish the pipeline's and init table's accumulated telemetry deltas
  // into the global registry.  Runs automatically at every window roll; call
  // before scraping for an up-to-the-last-packet view of a partial window.
  void flush_telemetry();
  const ModuleInstances& modules() const { return inst_; }
  RegisterArray& bank(std::size_t stage) {
    return inst_.s[stage]->registers();
  }
  // Admission-control introspection (src/core/admission.h): remaining qid
  // space and the per-stage register allocator (read-only — admission
  // simulates first-fit on a copy).
  std::size_t free_qids() const {
    std::size_t n = 0;
    for (const bool used : qid_used_) n += !used;
    return n;
  }
  const RangeAllocator& bank_allocator(std::size_t stage) const {
    return bank_alloc_.at(stage);
  }
  std::size_t num_installs() const { return installs_.size(); }

 private:
  struct SliceRt {
    uint16_t query_uid;
    std::size_t index;
    bool final_slice;
    std::optional<int> in_hash_set, in_state_set;
    std::optional<int> out_hash_set, out_state_set;
    std::vector<uint16_t> qids;
  };

  struct InstallRecord {
    std::vector<uint16_t> qids;
    std::vector<uint64_t> init_handles;
    std::vector<std::pair<int, ModuleType>> rule_slots;  // (stage, type) per qid-rule
    std::vector<std::pair<std::size_t, std::size_t>> allocs;  // (stage, offset)
    std::vector<uint16_t> rule_qids;  // parallel to rule_slots
    std::vector<StateSegment> segments;  // allocated stateful slices
    std::optional<uint64_t> slice_rt_key;
    // A whole-query install's branches: the overlap rule's input.
    std::vector<BranchModules> branches;
  };

  InstallResult install_impl(const CompiledQuery& cq, bool resolve_offsets,
                             bool with_init,
                             std::optional<SliceRt> slice_meta);
  // Throws std::invalid_argument when a branch of `cq` breaks the overlap
  // rule against a sibling or an installed whole query other than
  // `replaces`.
  void check_overlap(const CompiledQuery& cq, uint64_t replaces) const;
  uint16_t alloc_qid();
  void free_qid(uint16_t q);
  // Remove `qid`'s rule from the module at `slot` (stage, type).
  void remove_rule(std::pair<int, ModuleType> slot, uint16_t qid);
  void roll(uint64_t ts);

  uint32_t id_;
  Pipeline pipeline_;
  ModuleInstances inst_;
  InitModule init_;
  std::vector<RangeAllocator> bank_alloc_;  // per stage
  RuleLatencyModel latency_;
  std::vector<bool> qid_used_;
  std::map<uint64_t, InstallRecord> installs_;
  std::map<uint64_t, SliceRt> slices_;  // keyed by same handle
  std::vector<StateSegment> segments_;  // every record's segments, in order
  uint64_t next_handle_ = 1;
  WindowClock clock_;
  uint64_t packets_forwarded_ = 0;
  uint64_t late_packets_ = 0;
  uint64_t late_published_ = 0;
  std::vector<SpHeader> sp_out_;  // backs Output::sp_out
};

}  // namespace newton
