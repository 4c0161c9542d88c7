// Paper class 1 kernels: synchronization around every scatter update.
//
//  * Critical - the literal strategy the paper benchmarks: the references
//    to the reduction array are enclosed in `#pragma omp critical`, so all
//    threads serialize on one lock for every pair. This is intentionally
//    the naive pattern; its collapse in Fig. 9 is a result, not a bug.
//  * Atomic   - the per-scalar `#pragma omp atomic` refinement; still one
//    RMW bus transaction per array element per pair.
//
// Team kernels: called by every thread of the caller's parallel region
// (see eam_kernels.hpp); the orphaned `omp for` ends each phase with an
// implicit barrier.
#include <omp.h>

#include "core/detail/eam_kernels.hpp"

namespace sdcmd::detail {

void density_critical_team(const EamArgs& a, std::span<double> rho) {
  const std::size_t n = a.x.size();
  const auto& index = a.list.neigh_index();
#pragma omp for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 xi = a.x[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = index[i];
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      double phi;
      if (!density_pair(a, xi, j, base + k, phi)) continue;
#pragma omp critical(sdcmd_density)
      {
        rho[i] += phi;
        rho[j] += phi;
      }
    }
  }
}

void density_atomic_team(const EamArgs& a, std::span<double> rho) {
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
      rho_i += phi;  // rho[i] is only *scattered to* via the j side below,
                     // so the i-side accumulates privately
#pragma omp atomic
      rho[j] += phi;
    }
#pragma omp atomic
    rho[i] += rho_i;
  }
}

void force_critical_team(const EamArgs& a, std::span<const double> fp,
                         std::span<Vec3> force, double* energy_parts,
                         double* virial_parts) {
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
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      Vec3 fv;
      double v, rvir;
      if (!force_pair(a, xi, j, base + k, fp_i + fp[j], fv, v, rvir)) {
        continue;
      }
#pragma omp critical(sdcmd_force)
      {
        force[i] += fv;
        force[j] -= fv;
      }
      energy += v;
      virial += rvir;
    }
  }
  const int tid = omp_get_thread_num();
  energy_parts[tid] = energy;
  virial_parts[tid] = virial;
}

void force_atomic_team(const EamArgs& a, std::span<const double> fp,
                       std::span<Vec3> force, double* energy_parts,
                       double* virial_parts) {
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
#pragma omp atomic
      force[j].x -= fv.x;
#pragma omp atomic
      force[j].y -= fv.y;
#pragma omp atomic
      force[j].z -= fv.z;
      energy += v;
      virial += rvir;
    }
#pragma omp atomic
    force[i].x += f_i.x;
#pragma omp atomic
    force[i].y += f_i.y;
#pragma omp atomic
    force[i].z += f_i.z;
  }
  const int tid = omp_get_thread_num();
  energy_parts[tid] = energy;
  virial_parts[tid] = virial;
}

}  // namespace sdcmd::detail
