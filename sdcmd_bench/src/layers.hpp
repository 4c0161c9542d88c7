// Spans around the benchmark's calls into sdcmd's layers.
//
// The benchmark never edits the program: it wraps the two public extension
// points the Simulation driver calls through (ForceProvider, Thermostat) in
// decorators that forward every call and, while the Tracer is on, clock it.
// Spans stay in memory and are written once, when the run ends.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "md/force_provider.hpp"
#include "md/thermostat.hpp"

namespace bench {

/// Monotonic seconds (steady_clock).
double now();

/// One timed call into a layer. `step` is the id of the MD step that was
/// in progress when the call began (-1 outside a timed step: set-up,
/// warm-up, resume).
struct Span {
  const char* name;
  double start;
  double end;
  long step;
};

/// One MD step of a traced block: its wall interval plus the layer time
/// the program reports through its own cumulative counters over the same
/// interval (neighbor build phases, supervisor checkpoint writes).
struct StepRecord {
  long step;
  double start;
  double end;
  double neighbor_s;
  double checkpoint_s;
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  /// Step id attributed to spans recorded from now on.
  void set_step(long step) { step_ = step; }

  void record(const char* name, double start, double end) {
    if (on_) spans_.push_back({name, start, end, step_});
  }
  void add_step(const StepRecord& record) { steps_.push_back(record); }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<StepRecord>& steps() const { return steps_; }

  /// Chrome trace-event JSON (open in Perfetto / chrome://tracing): one
  /// track for steps, one for the wrapped layer calls.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool on_ = false;
  long step_ = -1;
  std::vector<Span> spans_;
  std::vector<StepRecord> steps_;
};

/// Sums the decorator keeps for the force layer, beyond its spans: the
/// provider's own per-phase laps and the pair visits each call made.
struct ForceLayerTotals {
  double density_s = 0.0;
  double embed_s = 0.0;
  double force_s = 0.0;
  double pair_visits = 0.0;
};

/// Forwards every call to the wrapped provider; while the tracer is on,
/// compute() becomes a "core.compute" span, attach_schedule() a
/// "schedule.attach" span and on_neighbor_rebuild() a
/// "schedule.repartition" span.
class TracedForceProvider final : public sdcmd::ForceProvider {
 public:
  TracedForceProvider(std::unique_ptr<sdcmd::ForceProvider> inner,
                      Tracer& tracer);

  double cutoff() const override { return inner_->cutoff(); }
  sdcmd::NeighborMode required_mode() const override {
    return inner_->required_mode();
  }
  void attach_schedule(const sdcmd::Box& box, double range) override;
  void on_neighbor_rebuild(std::span<const sdcmd::Vec3> positions) override;
  sdcmd::EamForceResult compute(const sdcmd::Box& box, sdcmd::Atoms& atoms,
                                const sdcmd::NeighborList& list) override;
  sdcmd::PhaseTimers& timers() override { return inner_->timers(); }
  int neighbor_pad_width() const override {
    return inner_->neighbor_pad_width();
  }
  sdcmd::EamForceComputer* eam_computer() override {
    return inner_->eam_computer();
  }
  std::optional<sdcmd::ReductionStrategy> strategy() const override {
    return inner_->strategy();
  }
  bool set_strategy(sdcmd::ReductionStrategy s) override {
    return inner_->set_strategy(s);
  }
  std::optional<sdcmd::SdcConfig> sdc_config() const override {
    return inner_->sdc_config();
  }

  /// Totals over traced compute() calls.
  const ForceLayerTotals& totals() const { return totals_; }

 private:
  std::unique_ptr<sdcmd::ForceProvider> inner_;
  Tracer& tracer_;
  std::size_t density_ = 0;
  std::size_t embed_ = 0;
  std::size_t force_ = 0;
  ForceLayerTotals totals_;
};

/// Forwards to the wrapped thermostat; apply() is an "md.thermostat" span.
class TracedThermostat final : public sdcmd::Thermostat {
 public:
  TracedThermostat(std::unique_ptr<sdcmd::Thermostat> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void apply(std::span<sdcmd::Vec3> velocities, double mass,
             double dt) override;
  double target_temperature() const override {
    return inner_->target_temperature();
  }
  bool conserves_momentum() const override {
    return inner_->conserves_momentum();
  }

 private:
  std::unique_ptr<sdcmd::Thermostat> inner_;
  Tracer& tracer_;
};

}  // namespace bench
