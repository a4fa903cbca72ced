// Lowered intermediate representation of an installed query chain.
//
// The interpreter executes a query by walking all 64 pipeline stages and
// letting every placed module table look its rule up per active query —
// generic, but most of the per-packet work is dispatch: virtual
// execute_burst over mostly-empty stages, an active-list loop plus a
// config-table load per module, and re-reading rule parameters that never
// change between installs.  The chain compiler flattens all of that out
// once, at replica-load time: for each installed qid it collects the
// module rules that qid owns, in exact interpreter visit order
// ((stage, slot) major), and constant-folds every rule parameter into a
// flat ChainOp.  Executing a chain is then a straight walk over a small op
// array with no table lookups and no virtual calls (src/compile/executor.h).
//
// Every op also carries the address of its source module's rule-hit
// counter (TableProgram::hits_cell), so a compiled run advances the exact
// telemetry the interpreter would have.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/module_config.h"
#include "core/report.h"
#include "dataplane/register_array.h"
#include "packet/fields.h"
#include "sketch/hash.h"

namespace newton {

class Pipeline;

namespace compile {

// Lowered opcode.  H and S split by mode so the executor is branch-free on
// the mode flags.
enum class OpKind : uint8_t { K, HHash, HDirect, SOp, SBypass, R };

// One lowered module rule.  POD with the rule parameters constant-folded;
// non-owning pointers (register bank, report sink, hit cell) reference the
// worker replica the op was lowered from and stay valid for its lifetime.
struct ChainOp {
  OpKind kind = OpKind::K;
  uint8_t set = 0;          // which PHV metadata set the op reads/writes
  uint16_t qid = 0;
  // Interpreter visit order: (stage << 8) | slot.  The merge key when
  // several chains execute over one run of packets.
  uint32_t order = 0;
  uint64_t* hits = nullptr;  // source module's rule-hit cell

  // K
  std::array<uint32_t, kNumFields> masks{};
  // HHash / HDirect
  HashAlgo algo = HashAlgo::Crc32;
  uint32_t seed = 0;
  // HHash, filled by CompiledPipeline::build: key_hash_base(algo, seed) and
  // the key words any compiled K op on this metadata set may leave nonzero
  // (bit j = word j), so hash_key over them equals hash_words.
  uint32_t hash_base = 0;
  uint16_t cared = 0;
  uint32_t width = 1;
  uint32_t offset = 0;
  uint8_t direct_index = 0;
  // SOp
  RegisterArray* regs = nullptr;
  SaluOp sop = SaluOp::Add;
  bool operand_is_pkt_len = false;
  uint32_t operand = 1;
  uint32_t guard_lo = 0;
  uint32_t guard_hi = 0xffffffffu;
  uint32_t index_base = 0;
  // R
  RCombine combine = RCombine::None;
  bool match_on_global = true;
  uint32_t match_lo = 0;
  uint32_t match_hi = 0xffffffffu;
  RAction on_match = RAction::Continue;
  RAction on_miss = RAction::Continue;
  ReportSink* sink = nullptr;
  uint32_t switch_id = 0;
};

// A query's full lowered chain, ops in interpreter visit order.
struct Chain {
  uint16_t qid = 0;
  std::vector<ChainOp> ops;
};

// Lower every installed chain of `pipe`, sorted by qid.  Call with the
// replica quiesced: the lowered ops capture its modules' bank, report-sink
// and hit-cell addresses as constants.  Throws
// std::logic_error on a table that is not a K/H/S/R module — the layout
// places nothing else in a switch pipeline.
std::vector<Chain> lower(Pipeline& pipe);

}  // namespace compile
}  // namespace newton
