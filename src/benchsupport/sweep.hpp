// Timing harness behind the Table 1 / Fig. 9 reproductions.
//
// The paper measures "the running times of the calculations of the electron
// densities and forces" over 1000 MD steps. The harness prepares one
// thermally perturbed configuration per test case (positions displaced like
// a 300 K lattice, so neighbor counts match a live run), builds the neighbor
// list once, and times repeated full EAM force evaluations, reporting the
// density + force phase wall time per step. Speedup is the serial kernel's
// time divided by the strategy's time at each thread count - the paper's
// definition.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchsupport/cases.hpp"
#include "core/eam_force.hpp"
#include "md/system.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "potential/potential.hpp"

namespace sdcmd::bench {

struct Timing {
  double density_force_seconds = 0.0;  ///< per step, the paper's metric
  double total_seconds = 0.0;          ///< per step, incl. embedding
  std::size_t pair_visits = 0;         ///< per step
  std::size_t private_bytes = 0;       ///< SAP replication footprint
  /// Hardware-counter totals summed over the timed steps and the thread
  /// team, indexed density/embed/force. Valid only when the instrumented
  /// pass requested hw_counters AND perf_event_open was available.
  std::array<obs::HwCounts, 3> hw{};
  bool hw_valid = false;
  /// Max per-color work_max/work_mean over the density and force phases of
  /// the last timed step; 0 when the pass was uninstrumented. This is the
  /// barrier-stretch gauge the void drill compares across strategies.
  double sweep_imbalance = 0.0;
};

/// Observability sinks for an instrumented timing pass. All pointers are
/// borrowed and optional; `registry` is required when `jsonl` is set (the
/// JSONL record embeds a registry snapshot). Attaching instrumentation
/// enables the computer's SdcSweepProfiler, so the timed loop runs the
/// profiled sweep variant - use a separate uninstrumented pass for
/// publication numbers.
struct SweepInstrumentation {
  obs::MetricsRegistry* registry = nullptr;
  obs::StepMetricsWriter* jsonl = nullptr;
  obs::TraceWriter* trace = nullptr;
  /// Enable the computer's PerfPhaseProfiler for the timed loop: Timing
  /// gains per-phase counter totals and, with a registry, the hw.* gauge
  /// family (hw.available records whether the syscall actually worked).
  bool hw_counters = false;
};

/// One test case loaded, perturbed and ready to time.
class CaseRunner {
 public:
  /// `temperature` controls the thermal displacement amplitude of the
  /// perturbed lattice; `seed` makes runs reproducible.
  CaseRunner(const TestCase& test_case, const EamPotential& potential,
             double skin = 0.4, double temperature = 300.0,
             std::uint64_t seed = 20090924);

  /// Carve a spherical void of radius `radius_fraction` x (shortest box
  /// edge) out of the box center: the spatially non-uniform load that
  /// stresses barriered decompositions (subdomains overlapping the void
  /// run nearly empty while full ones pace every color sweep). Must be
  /// called before any timing call — the neighbor lists and the cached
  /// serial reference are built lazily from the current positions.
  /// Returns the number of atoms removed.
  std::size_t carve_void(double radius_fraction);

  /// Time `steps` force evaluations under `config` with `threads` OpenMP
  /// threads (one untimed warmup evaluation first). Returns std::nullopt
  /// when the configuration is infeasible - e.g. 1-D SDC on a box too
  /// small to split, the paper's Table 1 blanks. With `instr`, each timed
  /// evaluation additionally emits a JSONL step record and/or trace slices
  /// carrying the per-thread x per-color sweep profile.
  std::optional<Timing> time_strategy(
      const EamForceConfig& config, int threads, int steps,
      const SweepInstrumentation* instr = nullptr);

  /// Serial reference time (cached after the first call), per step.
  double serial_seconds_per_step(int steps);

  const System& system() const { return *system_; }
  const EamPotential& potential() const { return potential_; }
  double skin() const { return skin_; }

 private:
  const NeighborList& list_for(NeighborMode mode);

  const EamPotential& potential_;
  double skin_;
  std::unique_ptr<System> system_;
  std::unique_ptr<NeighborList> half_list_;
  std::unique_ptr<NeighborList> full_list_;
  std::optional<double> serial_time_;
};

/// speedup = serial / parallel; the paper's Table 1 cell format with two
/// decimals, or a centered dash for infeasible configurations.
std::string format_speedup(std::optional<double> speedup);

}  // namespace sdcmd::bench
