// Physical stages and the pipeline container.
//
// A Stage is a slice of the switch's resources holding the tables placed in
// it; modules in the same stage execute "simultaneously" (no intra-stage
// data dependencies — the compiler guarantees that), which we model as
// in-order execution of the stage's slots.  The Pipeline is the ordered
// list of stages a packet traverses.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "dataplane/table_program.h"

namespace newton {

namespace telemetry {
class Counter;
}  // namespace telemetry

class Stage {
 public:
  Stage() = default;

  // Place a table in this stage; rejects placements that exceed the
  // per-stage resource capacity.
  void add(std::shared_ptr<TableProgram> table);

  // Stage-major burst execution: each table runs over the whole burst
  // before the next table starts (see TableProgram::execute_burst for why
  // this is result-identical to the packet-major order).
  void execute_burst(Phv* phvs, std::size_t n) {
    for (auto& t : tables_) t->execute_burst(phvs, n);
  }

  const std::vector<std::shared_ptr<TableProgram>>& tables() const {
    return tables_;
  }
  ResourceVec used() const;

  // Deep copy (clones every table); capacity re-checks trivially hold since
  // the clone has the identical footprint.
  Stage clone() const;

 private:
  std::vector<std::shared_ptr<TableProgram>> tables_;
};

class Pipeline {
 public:
  explicit Pipeline(std::size_t num_stages = kStagesPerPipeline)
      : stages_(num_stages) {}

  Stage& stage(std::size_t i) { return stages_.at(i); }
  const Stage& stage(std::size_t i) const { return stages_.at(i); }
  std::size_t num_stages() const { return stages_.size(); }

  // Run a burst through the pipeline, stage-major: stage 0 executes every
  // packet, then stage 1, and so on.  One stage's tables (rules, match
  // index, register bank) stay hot in cache for the entire burst instead
  // of being evicted 24 stages deep on every packet.  Results are
  // byte-identical to running the packets one at a time in burst order:
  // packets are independent except through per-stage register banks, and
  // each bank's op sequence keeps the same per-packet order either way.
  // The plain per-packet path (network switches, CQE, fault re-runs) is a
  // burst of one.  The only telemetry cost is one plain add — counts reach
  // the registry when publish_telemetry() folds the delta in (window
  // barriers, flushes).
  void process_burst(Phv* phvs, std::size_t n) {
    packets_seen_ += n;
    for (Stage& s : stages_) s.execute_burst(phvs, n);
  }

  // Account packets a compiled executor (src/compile/) ran on this
  // pipeline's behalf, so newton_pipeline_*_packets_total advances
  // identically whether a burst executed interpreted or compiled.
  void note_compiled_packets(std::size_t n) { packets_seen_ += n; }
  // Take back `n` packets another replica counts: the sharded runtime runs
  // a packet on one shard per key group, and only one visit counts.
  void uncount_packets(std::size_t n) { packets_seen_ -= n; }

  // Publish packet/stage traversal counts and every table's rule hits into
  // the global registry (replicas of the same stage — sharded-runtime
  // workers, network switches — aggregate into the same per-stage series).
  // Cold path: call with the pipeline quiesced.
  void publish_telemetry();

  // Deep copy of the whole pipeline: every table (rules, configs, register
  // banks) is duplicated, so the replica can execute packets concurrently
  // with the original without sharing any mutable state.  The clone starts
  // with no unpublished telemetry of its own.
  Pipeline clone() const;

 private:
  std::vector<Stage> stages_;
  uint64_t packets_seen_ = 0;       // plain: one executing thread at a time
  uint64_t packets_published_ = 0;  // high-water mark of published packets
  // The series publish_telemetry() feeds, resolved at its first non-empty
  // publish (resolving earlier would export series that never moved).
  telemetry::Counter* packets_series_ = nullptr;
  std::vector<telemetry::Counter*> stage_series_;
};

}  // namespace newton
