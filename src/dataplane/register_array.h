// Stateful memory: register arrays with per-register stateful ALUs.
//
// The state bank module S comprises a register array and stateful ALUs that
// execute transactionally over one register per packet (§4.1).  Newton
// needs four ALU operations; BF needs `|` and CM needs `+`.  Return-value
// semantics (what the SALU forwards into the state result) follow what each
// sketch requires:
//   Read  -> current value
//   Write -> PREVIOUS value (read-modify-write)
//   Add   -> NEW value (post-increment; CM takes min of these across suites)
//   Or    -> PREVIOUS value (so `distinct` sees 0/partial on first occurrence)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace newton {

enum class SaluOp : uint8_t { Read, Write, Add, Or };

// How two replicas of the same bank range combine when per-worker shards
// are folded back together at a window boundary (src/runtime/):
//   Add -> element-wise sum   (count-min rows: total increments are additive)
//   Or  -> element-wise or    (bloom rows: membership union)
//   Max -> element-wise max   (write/reduce banks; exact under key-affine
//                              sharding, where each register is only ever
//                              written by one shard)
enum class MergeOp : uint8_t { Add, Or, Max };

class RegisterArray {
 public:
  explicit RegisterArray(std::size_t size) : regs_(size, 0) {
    if (size == 0)
      throw std::invalid_argument("RegisterArray: size must be > 0");
  }

  // Execute `op` on register `index` with `operand`; returns the value the
  // SALU forwards (see semantics above).  Out-of-range indices are a
  // programming error in the compiler and throw.  Inline: this is the
  // per-packet innermost call of the interpreter's S module.
  uint32_t execute(SaluOp op, std::size_t index, uint32_t operand) {
    return apply(regs_.at(index), op, operand);
  }

  uint32_t read(std::size_t index) const { return regs_.at(index); }
  void reset();  // epoch rollover: zero all registers
  // Zero one range (control plane sweeps a freshly allocated query slice so
  // no stale state from a removed query leaks into a new one).  Clamp
  // semantics, relied on by callers that size ranges optimistically: an
  // `offset` at or past the end is a no-op, and a range overshooting the
  // end (including offset + width overflow) is clamped to the last
  // register.  width == 0 clears nothing.
  void clear_range(std::size_t offset, std::size_t width);

  // Fold `other` into this array element-wise; sizes must match.
  void merge_from(const RegisterArray& other, MergeOp op);
  // Range-restricted merge, with the same clamp semantics as clear_range:
  // an offset at/past the end merges nothing, an overshooting width is
  // clamped, width == 0 is a no-op.  Used by the sharded runtime to combine
  // only the register slices actually allocated to queries.
  void merge_range_from(const RegisterArray& other, std::size_t offset,
                        std::size_t width, MergeOp op);

  std::size_t size() const { return regs_.size(); }

 private:
  static uint32_t apply(uint32_t& reg, SaluOp op, uint32_t operand) {
    switch (op) {
      case SaluOp::Read:
        return reg;
      case SaluOp::Write: {
        const uint32_t old = reg;
        reg = operand;
        return old;
      }
      case SaluOp::Add:
        reg += operand;
        return reg;
      case SaluOp::Or: {
        const uint32_t old = reg;
        reg |= operand;
        return old;
      }
    }
    return 0;
  }

  std::vector<uint32_t> regs_;
};

}  // namespace newton
