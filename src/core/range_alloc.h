// First-fit interval allocator for state-bank register ranges.
//
// H rules address a per-query slice [offset, offset+width) of a stage's
// register array ("with the adjustable range of the hash result, S supports
// flexible register allocation among different queries", §4.1).  The
// controller allocates these slices; removal returns them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

namespace newton {

class RangeAllocator {
 public:
  explicit RangeAllocator(std::size_t capacity) : capacity_(capacity) {}

  // First-fit allocation; returns the offset, or nullopt if no hole fits.
  std::optional<std::size_t> allocate(std::size_t width);

  // Reserve an exact range (used when a central controller pre-resolves
  // offsets so every replica switch uses identical addressing); fails if it
  // overlaps an existing allocation.
  bool reserve(std::size_t offset, std::size_t width);

  // Free a previously allocated/reserved range (must match exactly).
  bool free(std::size_t offset);

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const;
  std::size_t free_total() const { return capacity_ - used(); }

  // Width of the widest contiguous free hole.  Churny install/withdraw
  // sequences fragment the bank: free_total() may be large while no single
  // hole fits a query's slice — the gap the fragmentation gauges (and the
  // compactor, docs/admission.md) watch.
  std::size_t largest_free_block() const;

  // Widest allocation a first-fit allocate() would satisfy right now —
  // identical to largest_free_block(); spelled separately so call sites
  // read as an admission predicate.
  bool fits(std::size_t width) const {
    return width > 0 && width <= largest_free_block();
  }

  const std::map<std::size_t, std::size_t>& allocations() const {
    return allocs_;
  }

 private:
  std::size_t capacity_;
  std::map<std::size_t, std::size_t> allocs_;  // offset -> width
};

}  // namespace newton
