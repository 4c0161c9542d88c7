// The three sdcmd-bench workloads and the metrics they report.
// README.md beside this directory gives each workload's rationale and the
// per-layer -> end-to-end mapping.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

enum class Workload { BulkNve, VoidNpt, SupervisedCkpt };

std::optional<Workload> parse_workload(std::string_view name);
const char* to_string(Workload workload);

struct Options {
  Workload workload = Workload::BulkNve;
  std::uint64_t seed = 1;
  /// Length of the measured window (set-up, warm-up, resumes and the
  /// correctness gates come on top).
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the traced run's per-layer metrics.
  bool trace = false;
  /// A 6^3-cell box and short blocks, for the smoke test.
  bool tiny = false;
  /// Perturb the forces handed to the force gate, which must then trip.
  bool self_test = false;
  /// OpenMP threads of the threaded runs (the serial baseline uses one).
  int threads = 1;
  /// Ring directories, the result file and the trace file go here.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

struct Report {
  std::vector<Metric> metrics;
  /// MD steps run in the measured window plus set-ups and resumes.
  long attempted = 0;
  /// All of `attempted` when a correctness gate failed, else 0.
  long failed = 0;
  /// One line per violated gate; empty when every gate held.
  std::vector<std::string> gate_failures;
  /// One line per gate with its measured value, for the log.
  std::vector<std::string> gate_log;
  /// Human-readable layer budget of the traced window (trace runs only).
  std::vector<std::string> budget;
};

Report run_workload(const Options& options);

}  // namespace bench
