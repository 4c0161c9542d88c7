// The irregular-reduction parallelization strategies the paper compares
// (Section I taxonomy + the SDC contribution).
#pragma once

#include <string>

#include "neighbor/neighbor_list.hpp"

namespace sdcmd {

enum class ReductionStrategy {
  /// Single-threaded reference kernel (speedup baseline).
  Serial,
  /// Paper class 1: every scatter update inside `#pragma omp critical`.
  Critical,
  /// Modern refinement of class 1: per-scalar `#pragma omp atomic`.
  Atomic,
  /// Fine-grained class 1: scatter targets guarded by striped locks
  /// (locks[j % stripes]); contention shrinks with the stripe count.
  LockStriped,
  /// Paper class 2 (SAP): per-thread private copies of rho[] / force[],
  /// merged after the loop. Memory grows linearly with thread count.
  ArrayPrivatization,
  /// Paper class 5 (RC): full neighbor lists, gather-only kernels, about
  /// twice the floating-point work but no write conflicts.
  RedundantComputation,
  /// The paper's contribution: spatial decomposition coloring. Race-free
  /// scatter via color-wise sweeps separated by implicit barriers.
  Sdc,
};

/// All strategies, in the order benches report them.
inline constexpr ReductionStrategy kAllStrategies[] = {
    ReductionStrategy::Serial,
    ReductionStrategy::Critical,
    ReductionStrategy::Atomic,
    ReductionStrategy::LockStriped,
    ReductionStrategy::ArrayPrivatization,
    ReductionStrategy::RedundantComputation,
    ReductionStrategy::Sdc,
};

std::string to_string(ReductionStrategy s);

/// Parse "serial" / "critical" / "atomic" / "locks" / "sap" / "rc" /
/// "sdc" (also accepts the long names). Throws PreconditionError on junk.
ReductionStrategy parse_strategy(const std::string& name);

/// The neighbor-list flavor a strategy's kernels need: Full for
/// RedundantComputation, Half for everything else.
NeighborMode required_mode(ReductionStrategy s);

/// True for strategies whose scatter phase runs multi-threaded.
bool is_parallel(ReductionStrategy s);

}  // namespace sdcmd
