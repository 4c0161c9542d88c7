#include "layers.hpp"

#include <chrono>
#include <fstream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace bench {

double now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::string out;
  sdcmd::obs::JsonWriter w(out);
  const auto event = [&](const char* name, int tid, double start, double end,
                         long step, const StepRecord* record) {
    w.begin_object();
    w.member("name", name);
    w.member("ph", "X");
    w.member("pid", 1);
    w.member("tid", tid);
    w.member("ts", start * 1e6);
    w.member("dur", (end - start) * 1e6);
    w.key("args");
    w.begin_object();
    w.member("step", static_cast<std::int64_t>(step));
    if (record != nullptr) {
      w.member("neighbor_ms", record->neighbor_s * 1e3);
      w.member("checkpoint_ms", record->checkpoint_s * 1e3);
    }
    w.end_object();
    w.end_object();
  };
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const StepRecord& s : steps_) {
    event("step", 1, s.start, s.end, s.step, &s);
  }
  for (const Span& s : spans_) {
    event(s.name, 2, s.start, s.end, s.step, nullptr);
  }
  w.end_array();
  w.end_object();
  std::ofstream file(path);
  file << out << '\n';
  if (!file) throw sdcmd::Error("cannot write trace file " + path);
}

TracedForceProvider::TracedForceProvider(
    std::unique_ptr<sdcmd::ForceProvider> inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  sdcmd::PhaseTimers& t = inner_->timers();
  density_ = t.index("density");
  embed_ = t.index("embed");
  force_ = t.index("force");
}

void TracedForceProvider::attach_schedule(const sdcmd::Box& box,
                                          double range) {
  if (!tracer_.on()) return inner_->attach_schedule(box, range);
  const double t0 = now();
  inner_->attach_schedule(box, range);
  tracer_.record("schedule.attach", t0, now());
}

void TracedForceProvider::on_neighbor_rebuild(
    std::span<const sdcmd::Vec3> positions) {
  if (!tracer_.on()) return inner_->on_neighbor_rebuild(positions);
  const double t0 = now();
  inner_->on_neighbor_rebuild(positions);
  tracer_.record("schedule.repartition", t0, now());
}

sdcmd::EamForceResult TracedForceProvider::compute(
    const sdcmd::Box& box, sdcmd::Atoms& atoms,
    const sdcmd::NeighborList& list) {
  if (!tracer_.on()) return inner_->compute(box, atoms, list);
  sdcmd::PhaseTimers& t = inner_->timers();
  const double d0 = t.slot(density_).total();
  const double e0 = t.slot(embed_).total();
  const double f0 = t.slot(force_).total();
  const double t0 = now();
  const sdcmd::EamForceResult result = inner_->compute(box, atoms, list);
  tracer_.record("core.compute", t0, now());
  totals_.density_s += t.slot(density_).total() - d0;
  totals_.embed_s += t.slot(embed_).total() - e0;
  totals_.force_s += t.slot(force_).total() - f0;
  // The density and force phases each walk every listed pair once.
  totals_.pair_visits += 2.0 * static_cast<double>(list.pair_count());
  return result;
}

void TracedThermostat::apply(std::span<sdcmd::Vec3> velocities, double mass,
                             double dt) {
  if (!tracer_.on()) return inner_->apply(velocities, mass, dt);
  const double t0 = now();
  inner_->apply(velocities, mass, dt);
  tracer_.record("md.thermostat", t0, now());
}

}  // namespace bench
