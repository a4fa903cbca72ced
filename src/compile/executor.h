// Compiled per-query executor over lowered chains (chain_ir.h).
//
// A worker builds one CompiledPipeline per replica load.  At run time the
// worker partitions each burst into maximal runs of packets whose active
// query sets are identical and fully compiled, and hands each run here.
// The run's k active chains are merged by interpreter visit order (with
// k = 1 that is just the chain's own op array) and executed op-major over
// structure-of-arrays burst buffers, so field masking and hashing touch
// contiguous lanes.  Runs containing a query the lowerer didn't cover
// fall back to the interpreter (the worker routes those to
// Pipeline::process_burst).
//
// Each active query owns an alive row: R's Stop clears that query's lane,
// and every later op of the query skips it.  So a stopped query never
// overwrites a metadata set (there are only kNumMetadataSets, shared
// across queries) that a live chain still reads, exactly as the
// interpreter's per-table active-bit guard behaves.
//
// An HHash op computes the digests of a run's live lanes in one
// hash_words_lanes call (sketch/hash.h), which keeps four independent CRC
// chains in flight instead of one.
//
// The executor reproduces interpreter results byte-for-byte: same
// per-register op order (runs are contiguous in burst order and op-major
// execution preserves it), same report contents, same rule-hit telemetry
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
  bool enabled = true;  // false = skip lowering entirely (NEWTON_NO_JIT)
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
  // HHash over a partly dead row: live key rows gathered contiguously,
  // their digests, and the lane each came from.
  std::vector<uint32_t> rows, digest, lane;
  // Digest lanes computed by batched hashing, cumulative across rebuilds
  // (resize() never clears it); the worker mirrors it into WorkerStats.
  uint64_t hash_lanes = 0;

  void resize(std::size_t capacity, std::size_t queries);
};

// Per-query outcome of a build, for the runtime's coverage gauge.
struct QueryCoverage {
  uint16_t qid = 0;
  bool compiled = false;  // chain lowered; false = interpreter fallback
};

class CompiledPipeline {
 public:
  // Lower every installed chain of `pipe` (after report sinks are rebound)
  // and preallocate run scratch for bursts up to `burst_capacity`.
  // `opts.enabled` = false (NEWTON_NO_JIT / RuntimeOptions::jit) skips the
  // lowering entirely and leaves the object permanently not covering.
  void build(Pipeline& pipe, std::size_t burst_capacity,
             const ExecOptions& opts);

  bool enabled() const { return enabled_; }

  // Every query this packet activates has a compiled chain.
  bool covers(const Phv& phv) const {
    return enabled_ && (phv.active & ~compiled_).none();
  }

  // Execute a run of packets with identical active sets (the first packet's
  // set stands for all).  Requires covers(phvs[0]).  Returns true when the
  // run had exactly one active query.
  bool execute_run(Phv* phvs, std::size_t n);

  const std::vector<QueryCoverage>& coverage() const { return coverage_; }
  // Digest lanes batch-hashed so far, cumulative across rebuilds.
  uint64_t hash_lanes() const { return buffers_.hash_lanes; }

 private:
  bool enabled_ = false;
  std::vector<Chain> chains_;
  std::array<const Chain*, kMaxQueries> by_qid_{};
  // Chains that may read a lane before writing it; a run containing one
  // zeroes the key/hash/state lanes first (all standard suites write
  // first: K before H before S before R, per metadata set).
  std::bitset<kMaxQueries> needs_zero_;
  std::bitset<kMaxQueries> compiled_;
  std::vector<QueryCoverage> coverage_;
  // Multi-query merge scratch: sized at build to the total op count, so
  // merging never allocates on the packet path.
  std::vector<const ChainOp*> merged_;
  BurstBuffers buffers_;
};

}  // namespace compile
}  // namespace newton
