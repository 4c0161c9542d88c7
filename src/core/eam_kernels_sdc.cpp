// The paper's contribution: Spatial Decomposition Coloring kernels
// (Figs. 7 and 8).
//
// The caller's single `#pragma omp parallel` region spans the whole step
// (the paper avoids re-forking per color; the fused pipeline extends that
// to density -> embed -> force). Inside these orphaned team kernels a
// serial loop walks the colors; for each color an orphaned `#pragma omp
// for` distributes that color's subdomains over the threads, and the
// loop's implicit barrier is the only synchronization. Same-color
// subdomains are >= 2 * interaction-range apart, so their scatter
// footprints are disjoint and the plain (non-atomic) `+=` updates below
// are race-free by construction.
//
// Profiling: when EamArgs carries an enabled SdcSweepProfiler the sweep
// runs an equivalent variant whose `omp for` is `nowait` followed by an
// explicit barrier, so each thread can clock its own work span and the
// time it then spends blocked at the color barrier - the load-imbalance /
// barrier-wait evidence of the paper's Table 1 discussion. The profiler
// pointer is uniform across the team, so every thread takes the same
// branch and the explicit barrier is encountered by all threads. With the
// profiler off the original untimed loop runs: no clock reads, one branch
// per color.
//
// Callers must check partition freshness (atom_count == x.size()) BEFORE
// the parallel region: throwing from inside it would terminate.
#include <omp.h>

#include "common/timer.hpp"
#include "core/detail/eam_kernels.hpp"

namespace sdcmd::detail {

namespace {

/// Density work for every atom of one subdomain slot.
inline void density_slot(const EamArgs& a, const Partition& part,
                         std::size_t slot, std::span<double> rho) {
  const auto& index = a.list.neigh_index();
  for (std::uint32_t i : part.atoms_in_slot(slot)) {
    const Vec3 xi = a.x[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = index[i];
    double rho_i = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      double phi;
      if (!density_pair(a, xi, j, base + k, phi)) continue;
      rho_i += phi;
      rho[j] += phi;  // scatter into a neighbor region: safe, see header
    }
    rho[i] += rho_i;
  }
}

/// Force work for every atom of one subdomain slot.
inline void force_slot(const EamArgs& a, const Partition& part,
                       std::size_t slot, std::span<const double> fp,
                       std::span<Vec3> force, double& energy,
                       double& virial) {
  const auto& index = a.list.neigh_index();
  for (std::uint32_t i : part.atoms_in_slot(slot)) {
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
      force[j] -= fv;
      energy += v;
      virial += rvir;
    }
    force[i] += f_i;
  }
}

}  // namespace

void density_sdc_team(const EamArgs& a, const Partition& part,
                      std::span<double> rho) {
  const int colors = part.color_count();
  obs::SdcSweepProfiler* prof =
      (a.profiler != nullptr && a.profiler->enabled()) ? a.profiler : nullptr;
  const int tid = omp_get_thread_num();
  for (int c = 0; c < colors; ++c) {
    const std::size_t begin = part.color_begin(c);
    const std::size_t end = part.color_end(c);
    if (prof != nullptr) {
      obs::SweepSample sample;
      sample.start = wall_time();
      if (a.dynamic_schedule) {
#pragma omp for schedule(dynamic) nowait
        for (std::size_t slot = begin; slot < end; ++slot) {
          density_slot(a, part, slot, rho);
        }
      } else {
#pragma omp for schedule(static) nowait
        for (std::size_t slot = begin; slot < end; ++slot) {
          density_slot(a, part, slot, rho);
        }
      }
      const double t_work = wall_time();
#pragma omp barrier
      sample.work = t_work - sample.start;
      sample.wait = wall_time() - t_work;
      sample.valid = true;
      prof->record(kProfPhaseDensity, c, tid, sample);
    } else if (a.dynamic_schedule) {
#pragma omp for schedule(dynamic)
      for (std::size_t slot = begin; slot < end; ++slot) {
        density_slot(a, part, slot, rho);
      }
    } else {
#pragma omp for schedule(static)
      for (std::size_t slot = begin; slot < end; ++slot) {
        density_slot(a, part, slot, rho);
      }
    }
    // The barrier ending the `omp for` (implicit, or explicit in the
    // profiled variant) separates the colors: the paper's only
    // synchronization cost.
  }
}

void force_sdc_team(const EamArgs& a, const Partition& part,
                    std::span<const double> fp, std::span<Vec3> force,
                    double* energy_parts, double* virial_parts) {
  const int colors = part.color_count();
  obs::SdcSweepProfiler* prof =
      (a.profiler != nullptr && a.profiler->enabled()) ? a.profiler : nullptr;
  const int tid = omp_get_thread_num();
  double energy = 0.0;
  double virial = 0.0;
  for (int c = 0; c < colors; ++c) {
    const std::size_t begin = part.color_begin(c);
    const std::size_t end = part.color_end(c);
    if (prof != nullptr) {
      obs::SweepSample sample;
      sample.start = wall_time();
      if (a.dynamic_schedule) {
#pragma omp for schedule(dynamic) nowait
        for (std::size_t slot = begin; slot < end; ++slot) {
          force_slot(a, part, slot, fp, force, energy, virial);
        }
      } else {
#pragma omp for schedule(static) nowait
        for (std::size_t slot = begin; slot < end; ++slot) {
          force_slot(a, part, slot, fp, force, energy, virial);
        }
      }
      const double t_work = wall_time();
#pragma omp barrier
      sample.work = t_work - sample.start;
      sample.wait = wall_time() - t_work;
      sample.valid = true;
      prof->record(kProfPhaseForce, c, tid, sample);
    } else if (a.dynamic_schedule) {
#pragma omp for schedule(dynamic)
      for (std::size_t slot = begin; slot < end; ++slot) {
        force_slot(a, part, slot, fp, force, energy, virial);
      }
    } else {
#pragma omp for schedule(static)
      for (std::size_t slot = begin; slot < end; ++slot) {
        force_slot(a, part, slot, fp, force, energy, virial);
      }
    }
  }
  energy_parts[tid] = energy;
  virial_parts[tid] = virial;
}

}  // namespace sdcmd::detail
