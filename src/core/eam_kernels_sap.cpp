// Paper class 2: Shared Array Privatization (SAP).
//
// Every thread scatters into its own private copy of the reduction array;
// after the loop the copies are merged into the shared array. Memory grows
// linearly with the thread count - the paper's stated reason SAP stops
// scaling past ~8 cores (replicas evict useful cache lines and the merge
// traffic grows with threads).
//
// The merge here is parallelized over array index (each thread sums one
// index range across every replica), which is the strongest practical SAP
// variant; the paper's own implementation merged under a critical section
// and fared worse.
//
// Team kernels: orphaned OpenMP; the caller pre-sizes `priv` to at least
// the team size, and each thread zeroes its OWN replica (which also gives
// NUMA-friendly first-touch placement of replica pages).
#include <omp.h>

#include <algorithm>

#include "core/detail/eam_kernels.hpp"

namespace sdcmd::detail {

namespace {

/// Zero (or allocate-and-zero) the calling thread's replica.
template <typename T>
std::vector<T>& my_replica(std::vector<std::vector<T>>& priv, std::size_t n) {
  auto& mine = priv[static_cast<std::size_t>(omp_get_thread_num())];
  if (mine.size() != n) {
    mine.assign(n, T{});
  } else {
    std::fill(mine.begin(), mine.end(), T{});
  }
  return mine;
}

}  // namespace

void density_sap_team(const EamArgs& a, std::span<double> rho,
                      std::vector<std::vector<double>>& priv) {
  const std::size_t n = a.x.size();
  const int team = omp_get_num_threads();
  const auto& index = a.list.neigh_index();
  std::vector<double>& mine = my_replica(priv, n);
  // No barrier needed before the scatter: each thread touches only `mine`.
#pragma omp for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 xi = a.x[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = index[i];
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      double phi;
      if (!density_pair(a, xi, j, base + k, phi)) continue;
      mine[i] += phi;
      mine[j] += phi;
    }
  }
  // Merge: each thread owns a contiguous index range and sums that range
  // across every replica (no synchronization beyond the implicit barrier).
#pragma omp for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int t = 0; t < team; ++t) {
      sum += priv[static_cast<std::size_t>(t)][i];
    }
    rho[i] += sum;
  }
}

void force_sap_team(const EamArgs& a, std::span<const double> fp,
                    std::span<Vec3> force, double* energy_parts,
                    double* virial_parts,
                    std::vector<std::vector<Vec3>>& priv) {
  const std::size_t n = a.x.size();
  const int team = omp_get_num_threads();
  const auto& index = a.list.neigh_index();
  std::vector<Vec3>& mine = my_replica(priv, n);
  double energy = 0.0;
  double virial = 0.0;
#pragma omp for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 xi = a.x[i];
    const double fp_i = fp[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = index[i];
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      Vec3 fv;
      double v, rvir;
      if (!force_pair(a, xi, j, base + k, fp_i + fp[j], fv, v, rvir)) {
        continue;
      }
      mine[i] += fv;
      mine[j] -= fv;
      energy += v;
      virial += rvir;
    }
  }
#pragma omp for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 sum{};
    for (int t = 0; t < team; ++t) {
      sum += priv[static_cast<std::size_t>(t)][i];
    }
    force[i] += sum;
  }
  const int tid = omp_get_thread_num();
  energy_parts[tid] = energy;
  virial_parts[tid] = virial;
}

}  // namespace sdcmd::detail
