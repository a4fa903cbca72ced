// The four reconfigurable Newton modules plus the newton_init dispatch
// table, implemented as rule-configured TablePrograms (§4.1).
//
// Each physical module instance is one P4 table placed in one stage; a
// query consumes one *rule* in every module instance it uses.  All dynamic
// behaviour (which fields K masks, which algorithm H runs, which SALU S
// fires, what R matches and does) lives in the rules — the P4 program,
// i.e. the module layout, never changes at runtime.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/module_config.h"
#include "core/report.h"
#include "dataplane/match_table.h"
#include "dataplane/register_array.h"
#include "dataplane/table_program.h"

namespace newton {

// Registers per state-bank instance (per-stage S module).  Sized so an S
// instance consumes ~3.5% of switch.p4's SRAM as Table 3 reports.
inline constexpr std::size_t kStateBankRegisters = 49'152;

// Rules per module instance (the paper configures 256, §6.2).
inline constexpr std::size_t kRulesPerModule = 256;

class KModule : public TableProgram {
 public:
  explicit KModule(std::string name) : name_(std::move(name)), table_(kRulesPerModule) {}
  void execute(Phv& phv) override;
  void publish_telemetry() override;
  ResourceVec resources() const override;
  std::string name() const override { return name_; }
  std::shared_ptr<TableProgram> clone() const override {
    return std::make_shared<KModule>(*this);
  }
  ConfigTable<KConfig>& table() { return table_; }
  const ConfigTable<KConfig>& table() const { return table_; }

 private:
  std::string name_;
  ConfigTable<KConfig> table_;
};

class HModule : public TableProgram {
 public:
  explicit HModule(std::string name) : name_(std::move(name)), table_(kRulesPerModule) {}
  void execute(Phv& phv) override;
  void publish_telemetry() override;
  ResourceVec resources() const override;
  std::string name() const override { return name_; }
  std::shared_ptr<TableProgram> clone() const override {
    return std::make_shared<HModule>(*this);
  }
  ConfigTable<HConfig>& table() { return table_; }

 private:
  std::string name_;
  ConfigTable<HConfig> table_;
};

class SModule : public TableProgram {
 public:
  explicit SModule(std::string name, std::size_t registers = kStateBankRegisters)
      : name_(std::move(name)), table_(kRulesPerModule), regs_(registers) {}
  void execute(Phv& phv) override;
  void publish_telemetry() override;
  ResourceVec resources() const override;
  std::string name() const override { return name_; }
  // Clones duplicate the full register bank.
  std::shared_ptr<TableProgram> clone() const override {
    return std::make_shared<SModule>(*this);
  }
  ConfigTable<SConfig>& table() { return table_; }
  RegisterArray& registers() { return regs_; }
  const RegisterArray& registers() const { return regs_; }

 private:
  std::string name_;
  ConfigTable<SConfig> table_;
  RegisterArray regs_;
};

class RModule : public TableProgram {
 public:
  RModule(std::string name, ReportSink* sink, uint32_t switch_id)
      : name_(std::move(name)), table_(kRulesPerModule), sink_(sink),
        switch_id_(switch_id) {}
  void execute(Phv& phv) override;
  void publish_telemetry() override;
  ResourceVec resources() const override;
  std::string name() const override { return name_; }
  // The sink pointer is carried over; rebind it with set_sink.
  std::shared_ptr<TableProgram> clone() const override {
    return std::make_shared<RModule>(*this);
  }
  ConfigTable<RConfig>& table() { return table_; }
  void set_sink(ReportSink* sink) { sink_ = sink; }
  ReportSink* sink() const { return sink_; }
  uint32_t switch_id() const { return switch_id_; }

 private:
  void act(Phv& phv, uint16_t qid, const RConfig& cfg, RAction a);

  std::string name_;
  ConfigTable<RConfig> table_;
  ReportSink* sink_;
  uint32_t switch_id_;
};

// newton_init: ternary match on the 5-tuple + TCP flags, dispatching the
// packet to the (chain of) queries monitoring its traffic class (§4.1).
// A seventh match word carries whether the packet entered the network here
// (arrived on a host-facing port): CQE first slices match only at ingress
// edges, so a query execution starts exactly once per path, while
// sole-model deployments wildcard it and run at every hop.
class InitModule : public TableProgram {
 public:
  struct Action {
    std::vector<uint16_t> qids;  // queries/branches to activate
  };

  explicit InitModule(std::string name = "newton_init")
      : name_(std::move(name)), table_(kRulesPerModule) {}

  void execute(Phv& phv) override;
  void publish_telemetry() override;
  ResourceVec resources() const override;
  std::string name() const override { return name_; }
  std::shared_ptr<TableProgram> clone() const override {
    return std::make_shared<InitModule>(*this);
  }
  TernaryTable<Action>& table() { return table_; }
  const TernaryTable<Action>& table() const { return table_; }

  // The dispatch key in fixed inline storage (no per-packet vector).
  using Key = std::array<uint32_t, 7>;

  // Build the 7-word ternary key
  // [sip, dip, sport, dport, proto, flags, at_ingress].
  static Key key_of(const Packet& p, bool at_ingress);

 private:
  std::string name_;
  TernaryTable<Action> table_;
  // Scratch for lookup_all results; sized for the worst case (every rule
  // matches), so the zero-allocation lookup can never truncate.
  std::array<const Action*, kRulesPerModule> scratch_{};
};

// Per-module resource footprints (Table 3's per-module rows); constants are
// derived in modules.cpp from entry widths and the modeled switch geometry.
ResourceVec k_module_resources();
ResourceVec h_module_resources();
ResourceVec s_module_resources();
ResourceVec r_module_resources();
ResourceVec init_module_resources();

}  // namespace newton
