// Compiled per-query executors over lowered chains (chain_ir.h).
//
// A worker builds one CompiledPipeline per replica load.  At run time the
// worker partitions each burst into maximal runs of packets whose active
// query sets are identical and fully compiled, and hands each run here:
//
//   * single-query runs whose chain shape matches the compile-time shape
//     registry run the FUSED executor — a template-instantiated op
//     sequence (no dispatch at all between ops) over structure-of-arrays
//     burst buffers, so field masking and hashing touch contiguous lanes;
//   * everything else compiled runs the GENERIC executor — the k active
//     chains' ops merged by interpreter visit order into a preallocated
//     scratch, executed op-major with one runtime switch per op;
//   * runs containing a query the lowerer didn't cover fall back to the
//     interpreter (the worker routes those to Pipeline::process_burst).
//
// Both compiled paths hash in batches: an HHash op computes the digests of
// a run's lanes in one hash_words_lanes call (sketch/hash.h), which keeps
// four independent CRC chains in flight instead of one.  The fused path
// hashes every lane (a digest is a pure function of the staged keys, and
// stopped lanes' results are never read); the generic path gathers only
// the lanes where the op's query is still active.
//
// Both compiled paths reproduce interpreter results byte-for-byte: same
// per-register op order (runs are contiguous in burst order and op-major
// execution preserves it), same report contents, same rule-hit telemetry
// (ops bump the source modules' hit cells).  Report emission order within
// a burst can differ from the interpreter's stage-major order when k > 1;
// every cross-execution check in the tree compares sorted records.
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

// Structure-of-arrays burst scratch: per-packet key rows (kNumFields words,
// contiguous per packet so hashing reads one span) and per-burst result
// lanes.  The fused path keeps a run's lanes here; the generic path only
// gathers the lanes an H op hashes (keys -> hash, lane = source packet).
// Sized once at build; reused per run.
struct BurstBuffers {
  std::array<std::vector<uint32_t>, kNumMetadataSets> keys;
  std::array<std::vector<uint32_t>, kNumMetadataSets> hash;
  std::array<std::vector<uint32_t>, kNumMetadataSets> state;
  std::vector<uint32_t> global;
  std::vector<uint8_t> alive;
  std::size_t alive_n = 0;
  std::vector<uint32_t> lane;
  // Digest lanes computed by batched hashing, cumulative across rebuilds
  // (resize() never clears it); the worker mirrors it into WorkerStats.
  uint64_t hash_lanes = 0;

  void resize(std::size_t capacity);
};

// Fused shape entry point: executes a whole single-query run.
using FusedFn = void (*)(const Chain&, BurstBuffers&, const Phv*,
                         std::size_t);

// Per-query outcome of a build, for the runtime's coverage gauge.
struct QueryCoverage {
  uint16_t qid = 0;
  bool compiled = false;  // chain lowered (generic compiled path at least)
  bool fused = false;     // chain shape matched the fused registry
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
  // run took the fused path.
  bool execute_run(Phv* phvs, std::size_t n);

  const std::vector<QueryCoverage>& coverage() const { return coverage_; }
  // Digest lanes batch-hashed so far, cumulative across rebuilds.
  uint64_t hash_lanes() const { return buffers_.hash_lanes; }

 private:
  void execute_generic(const Phv& shape, Phv* phvs, std::size_t n);
  bool execute_fused(const Chain& c, Phv* phvs, std::size_t n);

  bool enabled_ = false;
  std::vector<Chain> chains_;
  std::array<const Chain*, kMaxQueries> by_qid_{};
  std::array<FusedFn, kMaxQueries> fused_{};
  // Chains whose op order writes every lane before reading it skip the
  // load-phase lane zeroing (all standard suites do: K before H before S
  // before R, per metadata set).
  std::bitset<kMaxQueries> fused_zero_;
  std::bitset<kMaxQueries> compiled_;
  std::vector<QueryCoverage> coverage_;
  // Generic-path merge scratch: sized at build to the total op count, so
  // merging never allocates on the packet path.
  std::vector<const ChainOp*> merged_;
  BurstBuffers buffers_;
};

}  // namespace compile
}  // namespace newton
