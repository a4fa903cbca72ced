#include "dataplane/pipeline.h"

#include <string>

#include "telemetry/telemetry.h"

namespace newton {

void Pipeline::publish_telemetry() {
  const uint64_t delta = packets_seen_ - packets_published_;
  if (delta != 0) {
    if (packets_series_ == nullptr) {
      auto& reg = telemetry::Registry::global();
      packets_series_ =
          &reg.counter("newton_pipeline_packets_total",
                       "Packets run through a pipeline (all replicas)");
      stage_series_.clear();
      for (std::size_t i = 0; i < stages_.size(); ++i)
        stage_series_.push_back(
            &reg.counter("newton_pipeline_stage_packets_total",
                         "Packets traversing a pipeline stage (all replicas)",
                         {{"stage", std::to_string(i)}}));
    }
    packets_series_->add(delta);
    // Every packet traverses every stage (stages predicate internally), so
    // each per-stage series advances by the same delta.
    for (telemetry::Counter* c : stage_series_) c->add(delta);
    packets_published_ = packets_seen_;
  }
  for (Stage& s : stages_)
    for (const auto& t : s.tables()) t->publish_telemetry();
}

void Stage::add(std::shared_ptr<TableProgram> table) {
  if (!table) throw std::invalid_argument("Stage::add: null table");
  if (!used().fits_with(table->resources(), stage_capacity()))
    throw std::runtime_error("Stage::add: per-stage resources exceeded by " +
                             table->name());
  tables_.push_back(std::move(table));
}

ResourceVec Stage::used() const {
  ResourceVec r;
  for (const auto& t : tables_) r += t->resources();
  return r;
}

Stage Stage::clone() const {
  Stage c;
  for (const auto& t : tables_) {
    c.tables_.push_back(t->clone());
    // The original keeps (and eventually publishes) its own counts; the
    // replica accounts only for packets it executes itself.
    c.tables_.back()->reset_telemetry();
  }
  return c;
}

Pipeline Pipeline::clone() const {
  Pipeline c(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i)
    c.stages_[i] = stages_[i].clone();
  return c;
}

}  // namespace newton
