#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/threads.hpp"
#include "common/units.hpp"
#include "geom/defects.hpp"
#include "layers.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/tabulated.hpp"
#include "run/run_dir.hpp"
#include "run/supervisor.hpp"

namespace bench {

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "bulk_nve") return Workload::BulkNve;
  if (name == "void_npt") return Workload::VoidNpt;
  if (name == "supervised_ckpt") return Workload::SupervisedCkpt;
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::BulkNve: return "bulk_nve";
    case Workload::VoidNpt: return "void_npt";
    case Workload::SupervisedCkpt: return "supervised_ckpt";
  }
  return "?";
}

namespace {

namespace fs = std::filesystem;
using namespace sdcmd;

constexpr double kTemperature = 300.0;  // K
/// Void radius as a fraction of the box edge (the void drill's shape).
constexpr double kVoidRadius = 0.3;
constexpr int kBarostatEvery = 10;
/// Largest force-component deviation from the serial reference (eV/A).
constexpr double kForceTolerance = 1e-12;
/// Largest relative total-energy jump across a checkpoint/resume.
constexpr double kContinuityTolerance = 1e-8;
/// Largest |E_end - E_start| per atom over bulk_nve's NVE window (eV).
/// Measured drift on 54,000 atoms at dt = 1 fs is ~2e-6 eV/atom over a
/// 30 s window; the bound leaves room for longer windows.
constexpr double kDriftBound = 1e-4;
/// Added to one force component handed to the force gate by --self-test.
constexpr double kSelfTestPerturbation = 1e-9;

struct Scale {
  int cells;
  int min_rounds;
  /// Extra set-ups per round; setup_s is the median of all set-ups.
  int setups_per_round;
  /// Resumes after each serial block and after each round's set-ups;
  /// resume_s is the fastest of all of them.
  int resumes_per_point;
  long warmup_steps;
  long main_block;    ///< threaded steps per block
  long serial_block;  ///< serial steps per block
  long checkpoint_every;
};

Scale scale_for(const Options& o) {
  if (o.tiny) return {6, 2, 1, 1, 20, 20, 10, 5};
  return {30, 5, 2, 3, 100, 200, 40, 20};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

SimulationConfig sim_config(ReductionStrategy strategy) {
  SimulationConfig config;
  config.dt = units::fs_to_internal(1.0);
  // The governor overrides this with its top feasible rung.
  config.force.strategy = strategy;
  return config;
}

/// Steps of one kind (threaded untraced, threaded traced, or serial).
struct Window {
  long steps = 0;
  double seconds = 0.0;
  double atom_steps = 0.0;
  std::vector<double> step_s;
  double throughput() const { return ratio(atom_steps, seconds); }
  double ms_per_step() const { return 1e3 * ratio(seconds, steps); }
};

/// Program-side cumulative counters read around traced blocks.
struct LayerDeltas {
  ForceLayerTotals force;
  double neighbor_builds = 0.0;
  double bin_s = 0.0;
  double count_s = 0.0;
  double fill_s = 0.0;
  double imbalance_sum = 0.0;  ///< sweep.imbalance summed over traced steps
};

class Bench {
 public:
  explicit Bench(const Options& options)
      : o_(options),
        scale_(scale_for(options)),
        ring_path_((fs::path(options.out_dir) /
                    (std::string(to_string(options.workload)) + "-seed" +
                     std::to_string(options.seed) + "-ring"))
                       .string()) {}

  Report run();

 private:
  bool supervised() const {
    return o_.workload == Workload::SupervisedCkpt;
  }
  System build_system() const;
  std::unique_ptr<Simulation> make_traced_sim(System system,
                                              const EamPotential& potential,
                                              ReductionStrategy strategy,
                                              TracedForceProvider** provider);
  void install_physics(Simulation& sim, bool traced);
  std::unique_ptr<Simulation> set_up();
  void warm_up();
  void measure();
  void run_block(Simulation& sim, long steps, Window& window, bool traced);
  void resume();
  void check_forces(Simulation& sim, const char* which, bool perturb);
  void add(const char* name, double value, const char* unit,
           std::size_t samples) {
    report_.metrics.push_back({name, value, unit, samples});
  }
  void gate(bool ok, const std::string& line) {
    report_.gate_log.push_back((ok ? "ok   " : "FAIL ") + line);
    if (!ok) report_.gate_failures.push_back(line);
  }
  void end_to_end_metrics();
  void layer_metrics();

  Options o_;
  Scale scale_;
  std::string ring_path_;
  Report report_;

  // Declared before everything that borrows them.
  Tracer tracer_;
  obs::MetricsRegistry run_registry_;
  obs::MetricsRegistry sim_registry_;
  std::unique_ptr<TabulatedEam> potential_;

  std::unique_ptr<Simulation> sim_;
  TracedForceProvider* provider_ = nullptr;  // owned by sim_
  std::unique_ptr<Simulation> serial_;
  std::optional<run::RunDir> ring_;
  std::unique_ptr<run::RunSupervisor> supervisor_;
  std::optional<run::RunDir> serial_ring_;
  std::unique_ptr<run::RunSupervisor> serial_supervisor_;

  std::vector<double> setup_s_, tabulate_s_, ctor_s_, first_force_s_;
  std::vector<double> resume_s_, scan_s_, rebuild_s_;
  Window main_, traced_, serial_win_;
  LayerDeltas deltas_;
  double energy_start_ = 0.0;
  double worst_continuity_ = 0.0;
};

System Bench::build_system() const {
  LatticeSpec lattice;
  lattice.type = LatticeType::Bcc;
  lattice.a0 = units::kLatticeFe;
  lattice.nx = lattice.ny = lattice.nz = scale_.cells;
  System system = System::from_lattice(lattice, units::kMassFe);
  if (o_.workload != Workload::VoidNpt) return system;
  const Box box = system.box();
  std::vector<Vec3> positions = system.atoms().position;
  carve_sphere(positions, box, (box.lo() + box.hi()) * 0.5,
               kVoidRadius * box.length(0));
  return System(box, Atoms(std::move(positions)), units::kMassFe);
}

std::unique_ptr<Simulation> Bench::make_traced_sim(
    System system, const EamPotential& potential, ReductionStrategy strategy,
    TracedForceProvider** provider) {
  const SimulationConfig config = sim_config(strategy);
  auto traced = std::make_unique<TracedForceProvider>(
      std::make_unique<EamForceProvider>(potential, config.force),
      tracer_);
  *provider = traced.get();
  return std::make_unique<Simulation>(std::move(system), std::move(traced),
                                      config);
}

void Bench::install_physics(Simulation& sim, bool traced) {
  if (o_.workload != Workload::VoidNpt) return;
  std::unique_ptr<Thermostat> thermostat =
      std::make_unique<BerendsenThermostat>(kTemperature,
                                            units::fs_to_internal(100.0));
  if (traced) {
    thermostat =
        std::make_unique<TracedThermostat>(std::move(thermostat), tracer_);
  }
  sim.set_thermostat(std::move(thermostat));
  sim.set_barostat(BerendsenBarostat(0.0, units::fs_to_internal(1000.0)),
                   kBarostatEvery);
}

// setup_s covers what a user waits for before the first step: building
// the system, tabulating the potential, constructing the Simulation (its
// neighbor list and schedule, then the governor's pick) and the first
// force evaluation. The first set-up is the one measured on; the others
// are repeated inside the timed window's rounds and thrown away.
std::unique_ptr<Simulation> Bench::set_up() {
  const double t0 = now();
  System system = build_system();
  const double t1 = now();
  auto potential = std::make_unique<TabulatedEam>(TabulatedEam::from_analytic(
      FinnisSinclair(FinnisSinclairParams::iron()), 2000, 2000, 60.0));
  const double t2 = now();
  TracedForceProvider* provider = nullptr;
  std::unique_ptr<Simulation> sim = make_traced_sim(
      std::move(system), *potential, ReductionStrategy::Serial, &provider);
  sim->set_temperature(kTemperature, o_.seed);
  sim->set_governor(GovernorConfig{});
  install_physics(*sim, true);
  const double t3 = now();
  sim->compute_forces();
  const double t4 = now();
  setup_s_.push_back(t4 - t0);
  tabulate_s_.push_back(t2 - t1);
  ctor_s_.push_back(t3 - t2);
  first_force_s_.push_back(t4 - t3);
  if (!potential_) {
    potential_ = std::move(potential);
    provider_ = provider;
    return sim;
  }
  sim.reset();  // it borrows `potential`
  return nullptr;
}

// Untimed. The NVE workloads start from a perfect lattice, so a short
// thermostatted stretch brings them to 300 K before the NVE window; the
// serial baseline then starts from the same equilibrated state.
void Bench::warm_up() {
  const bool nve = o_.workload != Workload::VoidNpt;
  if (nve) {
    sim_->set_thermostat(std::make_unique<TracedThermostat>(
        std::make_unique<BerendsenThermostat>(kTemperature,
                                              units::fs_to_internal(20.0)),
        tracer_));
  }
  sim_->run(scale_.warmup_steps);
  if (nve) sim_->set_thermostat(nullptr);

  set_threads(1);
  serial_ = std::make_unique<Simulation>(
      sim_->system(), *potential_, sim_config(ReductionStrategy::Serial));
  serial_->set_com_momentum_zeroed(sim_->com_momentum_zeroed());
  install_physics(*serial_, false);
  serial_->run(scale_.serial_block / 2);
  set_threads(o_.threads);
  sim_->run(scale_.main_block / 4);

  if (supervised()) {
    // The serial baseline of this workload is supervised too, with its own
    // ring: checkpoint writes are part of the problem's time to solution.
    fs::remove_all(ring_path_);
    fs::remove_all(ring_path_ + "-serial");
    ring_.emplace(ring_path_, 3);
    serial_ring_.emplace(ring_path_ + "-serial", 3);
    run::SupervisorConfig config;
    config.checkpoint_every = scale_.checkpoint_every;
    config.install_signal_handlers = false;
    serial_supervisor_ =
        std::make_unique<run::RunSupervisor>(*serial_, *serial_ring_, config);
    config.registry = &run_registry_;
    supervisor_ = std::make_unique<run::RunSupervisor>(*sim_, *ring_, config);
    // The resume points run_to() writes on entry.
    supervisor_->checkpoint_now();
    serial_supervisor_->checkpoint_now();
  } else {
    // The other workloads checkpoint once, to have a state to resume.
    fs::remove_all(ring_path_);
    ring_.emplace(ring_path_, 1);
    run::SupervisorConfig config;
    config.install_signal_handlers = false;
    config.registry = &run_registry_;
    run::RunSupervisor(*sim_, *ring_, config).checkpoint_now();
  }
  energy_start_ = sim_->sample().total_energy();
}

// One block: `steps` steps of `sim`, each timed from the previous step's
// callback (the first from the block start, the last to the block end, so
// the step times add up to the block's wall time and a checkpoint written
// after a step lands in the next step).
void Bench::run_block(Simulation& sim, long steps, Window& window,
                      bool traced) {
  const bool threaded = &sim == sim_.get();
  std::vector<double> stamps;
  stamps.reserve(static_cast<std::size_t>(steps) + 1);
  std::vector<double> neighbor_at, checkpoint_at;
  const obs::MetricsRegistry::Handle ckpt =
      run_registry_.stats("run.checkpoint_seconds");
  const obs::MetricsRegistry::Handle imbalance =
      sim_registry_.gauge("sweep.imbalance");
  const auto neighbor_seconds = [](const Simulation& s) {
    const NeighborBuildStats n = s.neighbor_stats();
    return n.bin_seconds + n.count_seconds + n.fill_seconds;
  };
  const auto sample_layers = [&](const Simulation& s) {
    neighbor_at.push_back(neighbor_seconds(s));
    checkpoint_at.push_back(run_registry_.total_stats(ckpt).sum());
  };

  const NeighborBuildStats n0 = sim.neighbor_stats();
  const ForceLayerTotals f0 = provider_->totals();
  if (traced) {
    InstrumentationConfig inst;
    inst.registry = &sim_registry_;
    inst.profile_sweep = true;
    sim.set_instrumentation(inst);
    tracer_.set_step(sim.current_step() + 1);
    tracer_.set_on(true);
    sample_layers(sim);
  }
  const Simulation::Callback callback = [&](const Simulation& s, long step) {
    stamps.push_back(now());
    if (!traced) return;
    sample_layers(s);
    deltas_.imbalance_sum += sim_registry_.value(imbalance);
    tracer_.set_step(step + 1);
  };

  const double t0 = now();
  stamps.push_back(t0);
  run::RunSupervisor* supervisor =
      threaded ? supervisor_.get() : serial_supervisor_.get();
  if (supervisor != nullptr) {
    supervisor->advance(steps, callback);
  } else {
    sim.run(steps, callback, 1);
  }
  const double t1 = now();
  stamps.back() = t1;

  if (traced) {
    neighbor_at.back() = neighbor_seconds(sim);
    checkpoint_at.back() = run_registry_.total_stats(ckpt).sum();
    tracer_.set_on(false);
    tracer_.set_step(-1);
    sim.clear_instrumentation();
    const long first = sim.current_step() - steps + 1;
    for (long i = 0; i < steps; ++i) {
      const auto k = static_cast<std::size_t>(i);
      tracer_.add_step({first + i, stamps[k], stamps[k + 1],
                        neighbor_at[k + 1] - neighbor_at[k],
                        checkpoint_at[k + 1] - checkpoint_at[k]});
    }
    const NeighborBuildStats n1 = sim.neighbor_stats();
    const ForceLayerTotals& f1 = provider_->totals();
    deltas_.force.density_s += f1.density_s - f0.density_s;
    deltas_.force.embed_s += f1.embed_s - f0.embed_s;
    deltas_.force.force_s += f1.force_s - f0.force_s;
    deltas_.force.pair_visits += f1.pair_visits - f0.pair_visits;
    deltas_.neighbor_builds += static_cast<double>(n1.builds - n0.builds);
    deltas_.bin_s += n1.bin_seconds - n0.bin_seconds;
    deltas_.count_s += n1.count_seconds - n0.count_seconds;
    deltas_.fill_s += n1.fill_seconds - n0.fill_seconds;
  }

  for (std::size_t k = 0; k + 1 < stamps.size(); ++k) {
    window.step_s.push_back(stamps[k + 1] - stamps[k]);
  }
  window.steps += steps;
  window.seconds += t1 - t0;
  window.atom_steps +=
      static_cast<double>(steps) * static_cast<double>(sim.system().size());
}

// The timed window: threaded and serial blocks alternate (and, in a traced
// run, traced and untraced threaded blocks alternate in turn), and every
// round repeats set-ups and resumes, so host drift hits every kind of
// sample alike. Rounds repeat until --seconds is spent; the window ends
// at the round boundary nearest to it.
void Bench::measure() {
  const double start = now();
  long round = 0;
  double elapsed = 0.0;
  do {
    if (o_.trace && round % 2 == 1) {
      run_block(*sim_, scale_.main_block, traced_, true);
    }
    run_block(*sim_, scale_.main_block, main_, false);
    if (o_.trace && round % 2 == 0) {
      run_block(*sim_, scale_.main_block, traced_, true);
    }
    set_threads(1);
    run_block(*serial_, scale_.serial_block, serial_win_, false);
    set_threads(o_.threads);
    for (int k = 0; k < scale_.resumes_per_point; ++k) resume();
    for (int k = 0; k < scale_.setups_per_round; ++k) set_up();
    for (int k = 0; k < scale_.resumes_per_point; ++k) resume();
    ++round;
    elapsed = now() - start;
  } while (round < scale_.min_rounds ||
           elapsed + 0.5 * elapsed / static_cast<double>(round) < o_.seconds);
}

// resume_s: RunDir::try_resume -> a Simulation on the loaded state with the
// saved governor rung -> first force, as a user's restarted process does
// it. Each resume must reproduce the sidecar's total energy. The metric is
// the fastest resume of the run: most of a resume is single-threaded text
// parsing, whose speed on a shared host swings by up to 1.6x for stretches
// of seconds to minutes, which moves the median of a run's resumes with
// the host's load; the fastest of some 30 resumes spread over the window
// tracks the code.
void Bench::resume() {
  const double t0 = now();
  std::optional<run::ResumePoint> point = ring_->try_resume();
  const double t1 = now();
  if (!point) {
    gate(false, "resume: no valid checkpoint in " + ring_path_);
    return;
  }
  const bool governed = point->state_valid && point->state.has_governor;
  TracedForceProvider* provider = nullptr;
  std::unique_ptr<Simulation> sim = make_traced_sim(
      point->checkpoint.system, *potential_,
      governed ? point->state.governor.active : ReductionStrategy::Serial,
      &provider);
  sim->set_current_step(point->checkpoint.step);
  if (point->state_valid) {
    sim->set_dt(point->state.dt);
    sim->set_com_momentum_zeroed(point->state.momentum_zeroed);
  }
  if (governed) {
    sim->set_governor(GovernorConfig{}, point->state.governor);
  } else {
    sim->set_governor(GovernorConfig{});
  }
  sim->compute_forces();
  const double t2 = now();
  resume_s_.push_back(t2 - t0);
  scan_s_.push_back(t1 - t0);
  rebuild_s_.push_back(t2 - t1);

  const double ref = point->state.total_energy;
  const double rel = std::abs(sim->sample().total_energy() - ref) /
                     std::max(1.0, std::abs(ref));
  // NaN-safe: a non-finite energy counts as the worst jump.
  if (!point->state_valid || !(rel <= worst_continuity_)) {
    worst_continuity_ = point->state_valid && std::isfinite(rel)
                            ? rel
                            : std::numeric_limits<double>::infinity();
  }
}

void Bench::check_forces(Simulation& sim, const char* which, bool perturb) {
  sim.compute_forces();
  const Atoms& atoms = sim.system().atoms();
  const std::size_t n = atoms.size();
  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> reference(n);
  sim.force_computer().compute_serial_reference(
      sim.system().box(), atoms.position, sim.neighbor_list(), rho, fp,
      reference);
  std::vector<Vec3> checked = atoms.force;
  if (perturb) checked[n / 2].x += kSelfTestPerturbation;
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      worst = std::max(worst, std::abs(checked[i][d] - reference[i][d]));
    }
  }
  std::ostringstream line;
  line << "forces (" << which << ") vs serial reference: max |dF| " << worst
       << " <= " << kForceTolerance << " eV/A";
  gate(std::isfinite(worst) && worst <= kForceTolerance, line.str());
}

void Bench::end_to_end_metrics() {
  add("atom_steps_per_s", main_.throughput(), "1/s",
      static_cast<std::size_t>(main_.steps));
  add("step_ms_p50", 1e3 * quantile(main_.step_s, 0.50), "ms",
      main_.step_s.size());
  add("step_ms_p99", 1e3 * quantile(main_.step_s, 0.99), "ms",
      main_.step_s.size());
  add("setup_s", median(setup_s_), "s", setup_s_.size());
  add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  add("serial_atom_steps_per_s", serial_win_.throughput(), "1/s",
      static_cast<std::size_t>(serial_win_.steps));
  add("resume_s", minimum(resume_s_), "s", resume_s_.size());
}

void Bench::layer_metrics() {
  // Per-call sums of the wrapped calls. Spans inside traced blocks carry a
  // step id; attach and thermostat calls are also taken from set-up and
  // warm-up, where bulk_nve makes its only ones.
  struct Sum {
    double seconds = 0.0;
    std::size_t calls = 0;
    void add(const Span& s) {
      seconds += s.end - s.start;
      ++calls;
    }
    double ms() const { return 1e3 * ratio(seconds, calls); }
  };
  Sum compute, repartition, attach_all, thermostat_all;
  Sum attach_window, thermostat_window;
  std::unordered_map<long, double> child_s;
  for (const Span& s : tracer_.spans()) {
    const std::string_view name = s.name;
    const bool in_window = s.step >= 0;
    if (in_window) child_s[s.step] += s.end - s.start;
    if (name == "schedule.attach") {
      attach_all.add(s);
      if (in_window) attach_window.add(s);
    } else if (name == "md.thermostat") {
      thermostat_all.add(s);
      if (in_window) thermostat_window.add(s);
    } else if (!in_window) {
      continue;
    } else if (name == "core.compute") {
      compute.add(s);
    } else if (name == "schedule.repartition") {
      repartition.add(s);
    }
  }

  // Reconciliation: every traced step's wall time is the wrapped layers'
  // spans, the neighbor build and checkpoint time the program reports over
  // that step, and the rest (md.other: integration, barostat, governor,
  // callbacks). Layer time exceeding its step would be time counted twice
  // or charged to the wrong step; its share is the residual.
  double step_total = 0.0, other_total = 0.0, over = 0.0;
  double neighbor_total = 0.0, checkpoint_total = 0.0;
  for (const StepRecord& r : tracer_.steps()) {
    const double duration = r.end - r.start;
    const double layers = child_s[r.step] + r.neighbor_s + r.checkpoint_s;
    const double other = duration - layers;
    if (other < 0.0) {
      over -= other;
    } else {
      other_total += other;
    }
    step_total += duration;
    neighbor_total += r.neighbor_s;
    checkpoint_total += r.checkpoint_s;
  }
  const std::size_t steps = tracer_.steps().size();
  const auto budget = [&](const char* layer, double seconds) {
    std::ostringstream line;
    line.setf(std::ios::fixed);
    line.precision(4);
    line << layer << ' ' << 1e3 * ratio(seconds, steps) << " ms/step ("
         << 100.0 * ratio(seconds, step_total) << " %)";
    report_.budget.push_back(line.str());
  };
  budget("core       ", compute.seconds);
  budget("neighbor   ", neighbor_total);
  budget("schedule   ", attach_window.seconds + repartition.seconds);
  budget("md.thermo  ", thermostat_window.seconds);
  budget("run/io     ", checkpoint_total);
  budget("md.other   ", other_total);
  budget("sum        ", compute.seconds + neighbor_total +
                            attach_window.seconds + repartition.seconds +
                            thermostat_window.seconds + checkpoint_total +
                            other_total);
  budget("step       ", step_total);

  const ForceLayerTotals& f = deltas_.force;
  const double builds = deltas_.neighbor_builds;
  const auto nbuilds = static_cast<std::size_t>(builds);
  add("core.compute_ms", compute.ms(), "ms", compute.calls);
  add("core.density_ms", 1e3 * ratio(f.density_s, compute.calls), "ms",
      compute.calls);
  add("core.embed_ms", 1e3 * ratio(f.embed_s, compute.calls), "ms",
      compute.calls);
  add("core.force_ms", 1e3 * ratio(f.force_s, compute.calls), "ms",
      compute.calls);
  add("core.pair_visits", ratio(f.pair_visits, compute.calls), "count/step",
      compute.calls);
  add("core.ns_per_pair_visit", 1e9 * ratio(compute.seconds, f.pair_visits),
      "ns", compute.calls);
  add("core.sweep_imbalance", ratio(deltas_.imbalance_sum, steps), "ratio",
      steps);
  add("core.active_strategy",
      sim_->governor() != nullptr
          ? StrategyGovernor::strategy_code(sim_->governor()->active())
          : -1.0,
      "code", 1);

  const NeighborList& list = sim_->neighbor_list();
  const std::vector<Vec3>& pos = sim_->system().atoms().position;
  const Box& box = sim_->system().box();
  const double cut2 = list.cutoff() * list.cutoff();
  std::size_t useful = 0;
  for (std::size_t i = 0; i < list.atom_count(); ++i) {
    for (std::uint32_t j : list.neighbors(i)) {
      if (box.distance2(pos[i], pos[j]) <= cut2) ++useful;
    }
  }
  add("neighbor.rebuild_ms",
      1e3 * ratio(deltas_.bin_s + deltas_.count_s + deltas_.fill_s, builds),
      "ms", nbuilds);
  add("neighbor.bin_ms", 1e3 * ratio(deltas_.bin_s, builds), "ms", nbuilds);
  add("neighbor.count_ms", 1e3 * ratio(deltas_.count_s, builds), "ms",
      nbuilds);
  add("neighbor.fill_ms", 1e3 * ratio(deltas_.fill_s, builds), "ms",
      nbuilds);
  add("neighbor.rebuilds_per_kstep", 1e3 * ratio(builds, steps),
      "count/kstep", steps);
  add("neighbor.useful_pair_frac",
      ratio(static_cast<double>(useful),
            static_cast<double>(list.pair_count())),
      "frac", list.pair_count());
  add("neighbor.list_mb",
      static_cast<double>(list.memory_bytes()) / (1024.0 * 1024.0), "MiB",
      1);

  add("schedule.attach_ms", attach_all.ms(), "ms", attach_all.calls);
  add("schedule.attaches_per_kstep",
      1e3 * ratio(static_cast<double>(attach_window.calls), steps),
      "count/kstep", steps);
  add("schedule.repartition_ms", repartition.ms(), "ms", repartition.calls);

  add("md.thermostat_ms", thermostat_all.ms(), "ms", thermostat_all.calls);
  add("md.other_ms", 1e3 * ratio(other_total, steps), "ms", steps);
  add("md.other_frac", ratio(other_total, step_total), "frac", steps);

  const RunningStats& ckpt =
      run_registry_.total_stats(run_registry_.stats("run.checkpoint_seconds"));
  add("run.checkpoint_ms", 1e3 * ckpt.mean(), "ms", ckpt.count());
  const std::vector<run::RingEntry> ring = ring_->read_manifest();
  add("run.checkpoint_mb",
      ring.empty() ? 0.0
                   : static_cast<double>(fs::file_size(
                         ring_->file_path(ring.front().file))) /
                         (1024.0 * 1024.0),
      "MiB", 1);
  add("io.resume_scan_ms", 1e3 * median(scan_s_), "ms", scan_s_.size());
  add("io.resume_rebuild_ms", 1e3 * median(rebuild_s_), "ms",
      rebuild_s_.size());

  add("setup.tabulate_ms", 1e3 * median(tabulate_s_), "ms",
      tabulate_s_.size());
  add("setup.sim_ctor_ms", 1e3 * median(ctor_s_), "ms", ctor_s_.size());
  add("setup.first_force_ms", 1e3 * median(first_force_s_), "ms",
      first_force_s_.size());

  add("trace.overhead_frac",
      ratio(traced_.ms_per_step() - main_.ms_per_step(), main_.ms_per_step()),
      "frac", static_cast<std::size_t>(traced_.steps));
  add("trace.reconcile_residual", ratio(over, step_total), "frac", steps);
  add("scaling.speedup_vs_serial",
      ratio(main_.throughput(), serial_win_.throughput()), "x",
      static_cast<std::size_t>(serial_win_.steps));
}

Report Bench::run() {
  set_threads(o_.threads);
  fs::create_directories(o_.out_dir);
  tracer_.set_on(o_.trace);
  sim_ = set_up();
  warm_up();
  tracer_.set_on(false);

  measure();

  if (o_.workload == Workload::BulkNve) {
    const double drift = std::abs(sim_->sample().total_energy() -
                                  energy_start_) /
                         static_cast<double>(sim_->system().size());
    std::ostringstream line;
    line << "NVE drift over " << main_.steps + traced_.steps
         << " threaded steps: " << drift << " <= " << kDriftBound
         << " eV/atom";
    gate(std::isfinite(drift) && drift <= kDriftBound, line.str());
  }
  std::ostringstream continuity;
  continuity << "energy continuity over " << resume_s_.size()
             << " resumes: max rel " << worst_continuity_
             << " <= " << kContinuityTolerance;
  gate(!resume_s_.empty() && worst_continuity_ <= kContinuityTolerance,
       continuity.str());
  check_forces(*sim_, "threaded", o_.self_test);
  set_threads(1);
  check_forces(*serial_, "serial", false);
  set_threads(o_.threads);

  report_.attempted = main_.steps + traced_.steps + serial_win_.steps +
                      static_cast<long>(setup_s_.size() + resume_s_.size());
  report_.failed = report_.gate_failures.empty() ? 0 : report_.attempted;
  if (o_.trace) {
    layer_metrics();
    tracer_.write_chrome_trace(
        (fs::path(o_.out_dir) /
         (std::string("trace-") + to_string(o_.workload) + "-seed" +
          std::to_string(o_.seed) + ".json"))
            .string());
  } else {
    end_to_end_metrics();
  }
  supervisor_.reset();
  ring_.reset();
  serial_supervisor_.reset();
  serial_ring_.reset();
  fs::remove_all(ring_path_);
  fs::remove_all(ring_path_ + "-serial");
  return report_;
}

}  // namespace

Report run_workload(const Options& options) {
  return Bench(options).run();
}

}  // namespace bench
