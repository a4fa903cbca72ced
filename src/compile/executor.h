// Compiled per-query executor over lowered chains (chain_ir.h).
//
// A worker builds one CompiledPipeline at every replica load, so every
// installed chain is lowered before the replica runs a packet.  At run
// time the worker partitions each burst into maximal runs of packets whose
// ordered activation lists (Phv::active_list) are identical, and hands
// each run here.  The run's k active chains are merged by interpreter
// visit order (with k = 1 that is just the chain's own op array) and
// executed op-major over structure-of-arrays burst buffers, so field
// masking and hashing touch contiguous lanes.
//
// Plans: the merged op order of a k >= 2 run depends only on its ordered
// activation list (merge ties break by list position), so the first run
// with a given list merges into a plan and every later run with that list
// executes the plan directly.  The plan table holds kPlanCapacity lists;
// once it is full, a run with an unseen list merges into scratch again
// (the same merge routine, so the result is the same op order) and
// plan_fallback_runs() counts it.  build() drops every plan, so no plan
// outlives the ChainOps it points at, and allocates the table's storage,
// so filling it never allocates on the packet path.
//
// Each active query owns an alive row: R's Stop clears that query's lane,
// and every later op of the query skips it.  So a stopped query never
// overwrites a metadata set (there are only kNumMetadataSets, shared
// across queries) that a live chain still reads, exactly as the
// interpreter's per-table active-bit guard behaves.
//
// An HHash op hashes each live lane's key with hash_key (sketch/hash.h):
// the CRC chain's affine form over the key words that some compiled K op
// on the op's metadata set can leave nonzero.  Each word is four table
// lookups independent of the others, so one key needs no batching to keep
// the load ports busy.
//
// The executor reproduces interpreter results byte-for-byte: same
// per-register op order (runs are contiguous in burst order and op-major
// execution preserves it, because build() compiles no two chains whose S
// register ranges overlap), same report contents, same rule-hit telemetry
// (ops bump the source modules' hit cells).  Report emission order within
// a burst can differ from the interpreter's stage-major order; every
// cross-execution check in the tree compares sorted records.
// docs/compile.md walks the lowering rules and the equivalence argument.
#pragma once

#include <bitset>
#include <cstdint>
#include <vector>

#include "compile/chain_ir.h"
#include "dataplane/phv.h"

namespace newton {

class Pipeline;

namespace compile {

// Executor options, plumbed from RuntimeOptions (sharded_runtime.h).
struct ExecOptions {
  bool enabled = true;  // false = skip lowering entirely
};

// Structure-of-arrays run scratch: per-packet key rows (kNumFields words,
// contiguous per packet so hashing reads one span), per-packet result
// lanes, and one alive row of `capacity` lanes per active query.  Sized
// once at build; reused per run.
struct BurstBuffers {
  std::size_t capacity = 0;
  std::array<std::vector<uint32_t>, kNumMetadataSets> keys;
  std::array<std::vector<uint32_t>, kNumMetadataSets> hash;
  std::array<std::vector<uint32_t>, kNumMetadataSets> state;
  std::vector<uint32_t> global;
  std::vector<uint8_t> alive;         // row r = active-list position r
  std::vector<std::size_t> alive_n;   // live lanes per row
  std::array<uint16_t, kMaxQueries> row_of{};  // qid -> row, this run
  // Digests HHash ops computed, cumulative across rebuilds (resize() never
  // clears it); the worker mirrors it into WorkerStats.
  uint64_t hash_lanes = 0;

  void resize(std::size_t capacity, std::size_t queries);
};

// Length of the run that starts at phvs[0]: every packet up to the first
// whose ordered activation list differs (at most n).  That list fixes a
// multi-query run's op interleaving and keys its plan, so the runtime cuts
// runs here before handing them to CompiledPipeline::execute_run.
inline std::size_t run_length(const Phv* phvs, std::size_t n) {
  std::size_t j = n == 0 ? 0 : 1;
  while (j < n && phvs[j].active_list == phvs[0].active_list) ++j;
  return j;
}

class CompiledPipeline {
 public:
  // Lower every installed chain of `pipe` (after report sinks are rebound)
  // and preallocate run scratch for bursts up to `burst_capacity`.
  // `opts.enabled` = false (RuntimeOptions::jit) skips the
  // lowering entirely and leaves the object permanently not covering.
  void build(Pipeline& pipe, std::size_t burst_capacity,
             const ExecOptions& opts);

  bool enabled() const { return enabled_; }

  // Every query this packet activates has a compiled chain.
  bool covers(const Phv& phv) const {
    return enabled_ && (phv.active & ~compiled_).none();
  }

  // Execute a run of packets with identical ordered activation lists (the
  // first packet's list stands for all).  Requires covers(phvs[0]).
  // Returns true when the run had exactly one active query.
  bool execute_run(Phv* phvs, std::size_t n);

  // Chains the last build left to the interpreter because one of their S
  // register ranges overlaps another S op's on the same bank (op-major
  // order is exact only over disjoint S slices).  0 for every installed
  // query: installs guard each S rule to its own slice.
  std::size_t overlapping_chains() const { return overlapping_; }

  // Digests computed so far, cumulative across rebuilds.
  uint64_t hash_lanes() const { return buffers_.hash_lanes; }

  // Distinct multi-query activation lists one build keeps a plan for.  A
  // detect-pcap pass has 3 and q135-trace 2.  Kept small because the op
  // arena is reserved for this many whole-pipeline programs in every
  // worker, whether or not its runs need plans.
  static constexpr std::size_t kPlanCapacity = 8;
  // Plans held since the last build.
  std::size_t plans() const { return plans_.size(); }
  // Multi-query runs merged into scratch because the plan table was full,
  // cumulative across rebuilds.
  uint64_t plan_fallback_runs() const { return fallback_runs_; }

 private:
  // One multi-query activation list and its merged op program, both stored
  // in the arenas below.
  struct Plan {
    uint32_t list_at = 0;  // offset into plan_lists_
    uint32_t k = 0;        // list length
    uint32_t ops_at = 0;   // offset into plan_ops_
    uint32_t m = 0;        // merged op count
  };

  // The plan of the ordered activation list `list[0..k)`, added on first
  // sight; nullptr when the list is new and the table is full.
  const Plan* plan_for(const uint16_t* list, std::size_t k);
  // k-way merge of the listed chains into interpreter visit order; writes
  // the op pointers to `out` and returns how many.
  std::size_t merge(const uint16_t* list, std::size_t k,
                    const ChainOp** out) const;

  bool enabled_ = false;
  std::size_t overlapping_ = 0;
  std::vector<Chain> chains_;
  std::array<const Chain*, kMaxQueries> by_qid_{};
  // Chains that may read a lane before writing it; a run containing one
  // zeroes the key/hash/state lanes first (all standard suites write
  // first: K before H before S before R, per metadata set).
  std::bitset<kMaxQueries> needs_zero_;
  std::bitset<kMaxQueries> compiled_;
  // Plan table.  build() reserves every arena for kPlanCapacity plans (a
  // list holds at most every chain, a merged program at most every op), so
  // adding a plan stays within capacity and never allocates.
  std::vector<Plan> plans_;
  std::vector<uint16_t> plan_lists_;
  std::vector<const ChainOp*> plan_ops_;
  uint64_t fallback_runs_ = 0;
  // Merge scratch for new plans and the fallback, sized at build to the
  // total op count.
  std::vector<const ChainOp*> merged_;
  BurstBuffers buffers_;
};

}  // namespace compile
}  // namespace newton
