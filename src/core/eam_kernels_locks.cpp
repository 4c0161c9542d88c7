// Lock-striped kernels: the fine-grained refinement of the paper's
// class 1. Each scatter target is guarded by `locks[j % stripes]`; the
// i-side accumulates privately and takes its stripe once per atom. Only
// one lock is ever held at a time, so there is no deadlock risk.
//
// Team kernels: orphaned OpenMP, called by every thread of the caller's
// parallel region (see eam_kernels.hpp).
#include <omp.h>

#include "core/detail/eam_kernels.hpp"
#include "core/lock_pool.hpp"

namespace sdcmd::detail {

void density_locks_team(const EamArgs& a, LockPool& locks,
                        std::span<double> rho) {
  const std::size_t n = a.x.size();
  const auto& index = a.list.neigh_index();
#pragma omp for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 xi = a.x[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = index[i];
    double rho_i = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      double phi;
      if (!density_pair(a, xi, j, base + k, phi)) continue;
      rho_i += phi;
      {
        LockPool::Guard guard(locks, j);
        rho[j] += phi;
      }
    }
    LockPool::Guard guard(locks, i);
    rho[i] += rho_i;
  }
}

void force_locks_team(const EamArgs& a, LockPool& locks,
                      std::span<const double> fp, std::span<Vec3> force,
                      double* energy_parts, double* virial_parts) {
  const std::size_t n = a.x.size();
  double energy = 0.0;
  double virial = 0.0;
  const auto& index = a.list.neigh_index();
#pragma omp for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 xi = a.x[i];
    const double fp_i = fp[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = index[i];
    Vec3 f_i{};
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      Vec3 fv;
      double v, rvir;
      if (!force_pair(a, xi, j, base + k, fp_i + fp[j], fv, v, rvir)) {
        continue;
      }
      f_i += fv;
      {
        LockPool::Guard guard(locks, j);
        force[j] -= fv;
      }
      energy += v;
      virial += rvir;
    }
    LockPool::Guard guard(locks, i);
    force[i] += f_i;
  }
  const int tid = omp_get_thread_num();
  energy_parts[tid] = energy;
  virial_parts[tid] = virial;
}

}  // namespace sdcmd::detail
