// Software continuation of partially-executed queries (§5.2).
//
// When a query needs more slices than the forwarding path has Newton hops,
// the last switch exports the packet's result snapshot and the analyzer
// "will continue executing the query" in software.  We realize the software
// plane by reusing the switch machinery with a large virtual pipeline: the
// remaining slices install into it, and each (packet, SP header) pair
// resumes exactly where the hardware stopped — so hardware and software
// agree bit-for-bit on hashes, register contents and thresholds.
#pragma once

#include <memory>
#include <vector>

#include "core/cqe.h"
#include "core/newton_switch.h"

namespace newton {

class SoftwarePlane {
 public:
  explicit SoftwarePlane(ReportSink* sink,
                         std::size_t virtual_stages = 64,
                         std::size_t bank_registers = kStateBankRegisters)
      : sw_(std::make_unique<NewtonSwitch>(/*id=*/0xFFFFu, virtual_stages,
                                           sink, bank_registers)) {}

  // Install the slices the data plane could not host (pre-resolved offsets
  // are reserved so software register addressing matches the hardware
  // plan).  Returns the switch-local qids in play.
  std::vector<uint16_t> install_remaining(const std::vector<QuerySlice>& slices,
                                          std::size_t first_slice,
                                          uint16_t query_uid);

  // Resume one packet from its snapshot and run it to completion: unlike a
  // hardware hop, software hosts every remaining slice, so intermediate
  // snapshots loop back internally.  Reports flow to the sink.
  void process(const Packet& pkt, const SpHeader& sp) {
    std::optional<SpHeader> cur = sp;
    for (int guard = 0; cur && guard < 64; ++guard) {
      // No header back: the final slice ran, or no slice hosts this one.
      const auto out = sw_->process(pkt, cur);
      cur.reset();
      if (!out.sp_out.empty()) cur = out.sp_out.front();
    }
  }

  NewtonSwitch& plane() { return *sw_; }

 private:
  std::unique_ptr<NewtonSwitch> sw_;
};

}  // namespace newton
