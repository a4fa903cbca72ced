// Compiled per-query executor over lowered chains (chain_ir.h).
//
// A worker builds one CompiledPipeline at every replica load, so every
// installed chain is lowered before the replica runs a packet.  At run
// time the worker partitions each burst into maximal runs of packets with
// the same active set (compile::run_length) and hands each run here.  The
// run's active chains execute one after another in stage order, each
// op-major over structure-of-arrays burst buffers, so field masking and
// hashing touch contiguous lanes.
//
// Chain after chain is the interpreter's visit order.  Queries active on
// one packet share its traffic, so the overlap rule (core/overlap.h, which
// NewtonSwitch::install enforces; a runtime hosts no CQE slices, which it
// does not check) put their branches in disjoint stage ranges, and the
// interpreter's stage walk runs every op of the earlier chain before any
// op of the later one.
//
// One alive row serves a run: R's Stop clears the running chain's lane,
// and the chain's later ops skip it, exactly as the interpreter's
// per-table active-bit guard behaves.  The row is refilled before the next
// chain, whose query nothing has stopped yet.
//
// An HHash op hashes each live lane's key with hash_key (sketch/hash.h):
// the CRC chain's affine form over the key words that some compiled K op
// on the op's metadata set can leave nonzero.  Each word is four table
// lookups independent of the others, so one key needs no batching to keep
// the load ports busy.
//
// The executor reproduces interpreter results byte-for-byte: same
// per-register op order (runs are contiguous in burst order, and every S
// rule is guarded to its own register allocation, so each register has
// one op and it sees the run's packets in order), same report contents,
// same rule-hit telemetry (ops bump the source modules' hit cells).
// Report emission order within a burst can differ from the interpreter's
// stage-major order; every cross-execution check in the tree compares
// sorted records.  docs/compile.md walks the lowering rules and the
// equivalence argument.
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
// lanes, and the running chain's alive row.  Sized once at build; reused
// per run.
struct BurstBuffers {
  std::size_t capacity = 0;
  std::array<std::vector<uint32_t>, kNumMetadataSets> keys;
  std::array<std::vector<uint32_t>, kNumMetadataSets> hash;
  std::array<std::vector<uint32_t>, kNumMetadataSets> state;
  std::vector<uint32_t> global;
  std::vector<uint8_t> alive;
  std::size_t alive_n = 0;  // live lanes in `alive`
  // Digests HHash ops computed, cumulative across rebuilds (resize() never
  // clears it); the worker mirrors it into WorkerStats.
  uint64_t hash_lanes = 0;

  void resize(std::size_t capacity);
};

// Length of the run that starts at phvs[0]: every packet up to the first
// whose active set differs (at most n).  The set fixes which chains run;
// their stages fix the order, so activation order does not matter.
inline std::size_t run_length(const Phv* phvs, std::size_t n) {
  std::size_t j = n == 0 ? 0 : 1;
  while (j < n && phvs[j].active == phvs[0].active) ++j;
  return j;
}

class CompiledPipeline {
 public:
  // Lower every installed chain of `pipe` (after report sinks are rebound)
  // and preallocate run scratch for bursts up to `burst_capacity`.
  // `opts.enabled` = false (RuntimeOptions::jit) skips the lowering
  // entirely and leaves the executor disabled.
  void build(Pipeline& pipe, std::size_t burst_capacity,
             const ExecOptions& opts);

  bool enabled() const { return enabled_; }
  // Whether this executor runs `phv`: every packet once enabled.
  bool covers(const Phv&) const { return enabled_; }

  // Execute a run of packets with one active set (the first packet's
  // stands for all).  Requires enabled().  Returns true when the run had
  // exactly one active query.
  bool execute_run(Phv* phvs, std::size_t n);

  // Digests computed so far, cumulative across rebuilds.
  uint64_t hash_lanes() const { return buffers_.hash_lanes; }

 private:
  bool enabled_ = false;
  std::vector<Chain> chains_;
  std::array<const Chain*, kMaxQueries> by_qid_{};
  // Chains that may read a lane before writing it; a run containing one
  // zeroes the key/hash/state lanes first (all standard suites write
  // first: K before H before S before R, per metadata set).
  std::bitset<kMaxQueries> needs_zero_;
  std::array<const Chain*, kMaxQueries> run_{};  // a run's chains, in order
  BurstBuffers buffers_;
};

}  // namespace compile
}  // namespace newton
