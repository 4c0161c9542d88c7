// Serial reference kernels plus the shared embedding phase.
//
// These are the paper's Figs. 1-2 loops: the outer loop walks atoms, the
// inner loop walks the CSR half neighbor list, and both rho[j] and force[j]
// receive symmetric scatter updates (the Section II.D "other optimizing
// methods": density counted for both partners of a pair, Newton's third law
// in the force loop). The per-pair work lives in density_pair/force_pair
// (eam_kernels.hpp) so the serial kernels exercise the same cache and
// devirtualized-spline paths as the parallel strategies.
#include <omp.h>

#include <algorithm>

#include "common/timer.hpp"
#include "core/detail/eam_kernels.hpp"

namespace sdcmd::detail {

void density_serial(const EamArgs& a, std::span<double> rho) {
  const std::size_t n = a.x.size();
  const auto& index = a.list.neigh_index();
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 xi = a.x[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = index[i];
    double rho_i = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      double phi;
      if (!density_pair(a, xi, nbrs[k], base + k, phi)) continue;
      // Single species: phi_ij == phi_ji, one evaluation feeds both atoms.
      rho_i += phi;
      rho[nbrs[k]] += phi;
    }
    rho[i] += rho_i;
  }
}

double embed_serial(const EamArgs& a, std::span<const double> rho,
                    std::span<double> fp) {
  const std::size_t n = rho.size();
  double energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double f, dfdrho;
    eval_embed(a, rho[i], f, dfdrho);
    fp[i] = dfdrho;
    energy += f;
  }
  return energy;
}

void embed_team(const EamArgs& a, std::span<const double> rho,
                std::span<double> fp, double* energy_parts) {
  const std::size_t n = rho.size();
  obs::SdcSweepProfiler* prof =
      (a.profiler != nullptr && a.profiler->enabled()) ? a.profiler : nullptr;
  const int tid = omp_get_thread_num();
  double energy = 0.0;
  if (a.soa.active()) {
    // SIMD embedding: distribute kSoaChunk-atom blocks over the team and
    // run the packed-spline simd loop per block. (A plain `omp for simd
    // reduction` cannot be used here: `energy` is thread-local in this
    // orphaned context, so a worksharing reduction over it is
    // non-conforming.)
    const std::size_t blocks = (n + kSoaChunk - 1) / kSoaChunk;
    const double* r = rho.data();
    double* d = fp.data();
    if (prof != nullptr) {
      obs::SweepSample sample;
      sample.start = wall_time();
#pragma omp for schedule(static) nowait
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t begin = b * kSoaChunk;
        energy += soa_embed_range(a.soa.embed, r, d, begin,
                                  std::min(n, begin + kSoaChunk));
      }
      const double t_work = wall_time();
#pragma omp barrier
      sample.work = t_work - sample.start;
      sample.wait = wall_time() - t_work;
      sample.valid = true;
      prof->record(kProfPhaseEmbed, 0, tid, sample);
    } else {
#pragma omp for schedule(static)
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t begin = b * kSoaChunk;
        energy += soa_embed_range(a.soa.embed, r, d, begin,
                                  std::min(n, begin + kSoaChunk));
      }
    }
    energy_parts[tid] = energy;
    return;
  }
  if (prof != nullptr) {
    // Same loop as below with per-thread work/wait spans recorded (see the
    // SDC kernels for the nowait + explicit-barrier pattern).
    obs::SweepSample sample;
    sample.start = wall_time();
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < n; ++i) {
      double f, dfdrho;
      eval_embed(a, rho[i], f, dfdrho);
      fp[i] = dfdrho;
      energy += f;
    }
    const double t_work = wall_time();
#pragma omp barrier
    sample.work = t_work - sample.start;
    sample.wait = wall_time() - t_work;
    sample.valid = true;
    prof->record(kProfPhaseEmbed, 0, tid, sample);
  } else {
#pragma omp for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      double f, dfdrho;
      eval_embed(a, rho[i], f, dfdrho);
      fp[i] = dfdrho;
      energy += f;
    }
  }
  energy_parts[tid] = energy;
}

double embed_phase(const EamPotential& pot, std::span<const double> rho,
                   std::span<double> fp, bool parallel) {
  const std::size_t n = rho.size();
  double energy = 0.0;
  if (parallel) {
#pragma omp parallel for schedule(static) reduction(+ : energy)
    for (std::size_t i = 0; i < n; ++i) {
      double f, dfdrho;
      pot.embed(rho[i], f, dfdrho);
      fp[i] = dfdrho;
      energy += f;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      double f, dfdrho;
      pot.embed(rho[i], f, dfdrho);
      fp[i] = dfdrho;
      energy += f;
    }
  }
  return energy;
}

void force_serial(const EamArgs& a, std::span<const double> fp,
                  std::span<Vec3> force, ForceSums& sums) {
  const std::size_t n = a.x.size();
  const auto& index = a.list.neigh_index();
  double energy = 0.0;
  double virial = 0.0;
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
      force[j] -= fv;  // Newton's third law (Section II.D, method 2)
      energy += v;
      virial += rvir;
    }
    force[i] += f_i;
  }
  sums.pair_energy = energy;
  sums.virial = virial;
}

}  // namespace sdcmd::detail
