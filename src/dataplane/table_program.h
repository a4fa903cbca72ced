// Interface between the pipeline container and the logical tables placed in
// it.  Newton's four modules, newton_init, and newton_fin all implement
// TableProgram; the Stage/Pipeline only know about execution order and
// resource footprints.
#pragma once

#include <memory>
#include <string>

#include "dataplane/phv.h"
#include "dataplane/resources.h"

namespace newton {

namespace telemetry {
class Counter;
}  // namespace telemetry

class TableProgram {
 public:
  virtual ~TableProgram() = default;

  // Apply this table to the packet (match + action).
  virtual void execute(Phv& phv) = 0;

  // Apply this table to a whole burst of packets.  The sharded runtime runs
  // bursts stage-major (every table sees the full burst before the next
  // table runs), which keeps one table's rules and match index hot in cache
  // across the burst.  Per-bank register-op order is identical to the
  // packet-major loop — each packet visits a given stage exactly once and
  // burst order is preserved — so results are byte-identical.  Overrides
  // must preserve that per-packet-in-order contract.
  virtual void execute_burst(Phv* phvs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) execute(phvs[i]);
  }

  // Static resource footprint of this table instance.
  virtual ResourceVec resources() const = 0;

  virtual std::string name() const = 0;

  // Deep copy: rules, configs and register state are duplicated so the
  // clone shares no mutable state with the original.  Non-owned environment
  // pointers (e.g. a report sink) are carried over as-is; callers that need
  // a private sink rebind it on the clone.  This is what lets a sharded
  // runtime replicate a pipeline per worker (src/runtime/).
  virtual std::shared_ptr<TableProgram> clone() const = 0;

  // Fold rule-hit counts accumulated since the last publish into the global
  // telemetry registry (cold path: window barriers and explicit flushes).
  // The hot path only bumps `hits_`, a plain field — a table instance is
  // only ever executed by one thread, so no atomics on the packet path.
  virtual void publish_telemetry() {}

  // Start with nothing pending; Stage::clone calls this so a clone never
  // re-publishes work its original already counted.
  void reset_telemetry() { hits_ = hits_published_ = 0; }

  // Address of the plain rule-hit counter.  The chain compiler
  // (src/compile/) hands this cell to the lowered executor so a compiled
  // run bumps exactly the counts the interpreter would have — telemetry is
  // identical either way.  Same single-writer contract as execute().
  uint64_t* hits_cell() { return &hits_; }

  // The registry series publish_telemetry() folds hits into: one per
  // module type, and one per type and stage where the instance name
  // carries a stage.  Resolved at the first publish that has hits.
  struct HitSeries {
    telemetry::Counter* type = nullptr;
    telemetry::Counter* stage = nullptr;
  };

 protected:
  uint64_t hits_ = 0;            // rule lookups that matched, this instance
  uint64_t hits_published_ = 0;  // high-water mark of published hits
  HitSeries hit_series_;
};

}  // namespace newton
