// Internal kernel entry points for EamForceComputer. One translation unit
// per strategy family keeps each parallelization pattern readable on its
// own (and mirrors how the paper presents them).
//
// Contract shared by all kernels (ISSUE 3 fused-pipeline revision):
//  * density kernels fill rho[] (zeroed by the caller);
//  * force kernels fill force[] (zeroed by the caller) and report the pair
//    energy and virial through per-thread partial sums;
//  * half-list kernels visit each pair once and scatter symmetric updates;
//    the RC kernels take a full list and only ever write index i;
//  * `_team` kernels are ORPHANED OpenMP code: every thread of the active
//    parallel region must call them (EamForceComputer::compute opens one
//    region per step and runs density -> embed -> force inside it). Each
//    ends at a barrier, so its outputs are complete when it returns. Called
//    outside a region they degrade gracefully to a team of one.
//
// Per-pair interaction cache: when EamArgs.cache is active, the density
// kernels record each pair's minimum-image geometry and density-spline
// derivative at its CSR slot; the force kernels then reuse those values
// instead of recomputing minimum image + sqrt + spline, and skip the
// cutoff test entirely (r < 0 marks pairs the density phase rejected).
//
// Devirtualized splines: when EamArgs.tables is non-null the inner loops
// evaluate flattened spline coefficients inline (see SplineView) instead of
// going through the EamPotential virtual interface. Analytic potentials
// leave tables null and keep the virtual path.
//
// SoA fast path: EamArgs.soa is active only under RedundantComputation.
// The RC kernels and embed_team then swap their scalar loops for the
// branch-free SIMD gathers of eam_soa.hpp (positions mirror, padded
// neighbor tiles, packed splines). Every half-list kernel runs its scalar
// CSR loop; those loops are also RC's correctness reference (SoA off).
#pragma once

#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "core/detail/eam_soa.hpp"
#include "core/sdc_schedule.hpp"
#include "geom/box.hpp"
#include "neighbor/neighbor_list.hpp"
#include "obs/sweep_profile.hpp"
#include "potential/potential.hpp"

namespace sdcmd {
class LockPool;
}

namespace sdcmd::detail {

/// Profiler phase indices shared by the kernels and EamForceComputer
/// (match the phase_names the computer configures its profiler with).
inline constexpr int kProfPhaseDensity = 0;
inline constexpr int kProfPhaseEmbed = 1;
inline constexpr int kProfPhaseForce = 2;

/// Borrowed SoA storage for the per-pair cache, indexed by CSR slot.
/// Null pointers mean caching is off for this compute() call.
struct PairCacheRefs {
  Vec3* dr = nullptr;      ///< minimum-image x_i - x_j
  double* r = nullptr;     ///< |dr|; < 0 marks a cutoff-rejected pair
  double* dphidr = nullptr;  ///< density-spline derivative at r

  bool active() const { return r != nullptr; }
};

struct EamArgs {
  const Box& box;
  std::span<const Vec3> x;
  const NeighborList& list;
  const EamPotential& pot;
  double cutoff2;          ///< squared potential cutoff (list range is wider)
  bool dynamic_schedule;   ///< omp dynamic chunking in the subdomain loop
  /// Per-thread x per-color span recorder; kernels take the timed code
  /// path only when non-null and enabled (SDC + embed phases).
  obs::SdcSweepProfiler* profiler = nullptr;
  /// Flattened spline tables for inline evaluation; null -> virtual calls.
  const EamSplineTables* tables = nullptr;
  /// Per-pair geometry/spline cache (density writes, force reads).
  PairCacheRefs cache{};
  /// SoA fast path (positions mirror + padded tiles + packed splines);
  /// active only under RedundantComputation, inactive -> scalar loops.
  SoaView soa{};
};

struct ForceSums {
  double pair_energy = 0.0;
  double virial = 0.0;
};

/// Minimum-image pair geometry; returns false when beyond the cutoff.
struct PairGeom {
  Vec3 dr;   ///< x_i - x_j (minimum image)
  double r;  ///< |dr|
};

inline bool pair_geometry(const Box& box, const Vec3& xi, const Vec3& xj,
                          double cutoff2, PairGeom& out) {
  out.dr = box.minimum_image(xi, xj);
  const double r2 = norm2(out.dr);
  if (r2 >= cutoff2) return false;
  out.r = std::sqrt(r2);
  return true;
}

// --- devirtualized potential evaluation ------------------------------------

inline void eval_density(const EamArgs& a, double r, double& phi,
                         double& dphidr) {
  if (a.tables != nullptr) {
    a.tables->density.evaluate(r, phi, dphidr);
  } else {
    a.pot.density(r, phi, dphidr);
  }
}

inline void eval_pair(const EamArgs& a, double r, double& v, double& dvdr) {
  if (a.tables != nullptr) {
    a.tables->pair.evaluate(r, v, dvdr);
  } else {
    a.pot.pair(r, v, dvdr);
  }
}

inline void eval_embed(const EamArgs& a, double rho_i, double& f,
                       double& dfdrho) {
  if (a.tables != nullptr) {
    a.tables->embed.evaluate(rho_i, f, dfdrho);
  } else {
    a.pot.embed(rho_i, f, dfdrho);
  }
}

// --- shared per-pair work ---------------------------------------------------

/// Phase-1 pair visit: minimum-image geometry + density spline, recording
/// the pair at its CSR `slot` when the cache is active. Returns false (and
/// stores the rejection sentinel) for pairs beyond the cutoff.
inline bool density_pair(const EamArgs& a, const Vec3& xi, std::uint32_t j,
                         std::size_t slot, double& phi) {
  PairGeom g;
  if (!pair_geometry(a.box, xi, a.x[j], a.cutoff2, g)) {
    if (a.cache.active()) a.cache.r[slot] = -1.0;
    return false;
  }
  double dphidr;
  eval_density(a, g.r, phi, dphidr);
  if (a.cache.active()) {
    a.cache.dr[slot] = g.dr;
    a.cache.r[slot] = g.r;
    a.cache.dphidr[slot] = dphidr;
  }
  return true;
}

/// Phase-3 pair visit: reads geometry and the density derivative back from
/// the cache when active (no minimum image, no sqrt, no cutoff test, no
/// density spline), else recomputes them. Outputs the force on i (`fv`),
/// the pair energy `v`, and the virial contribution `rvir`.
inline bool force_pair(const EamArgs& a, const Vec3& xi, std::uint32_t j,
                       std::size_t slot, double fp_sum, Vec3& fv, double& v,
                       double& rvir) {
  Vec3 dr;
  double r, dphidr;
  if (a.cache.active()) {
    r = a.cache.r[slot];
    if (r < 0.0) return false;  // rejected by the density phase
    dr = a.cache.dr[slot];
    dphidr = a.cache.dphidr[slot];
  } else {
    PairGeom g;
    if (!pair_geometry(a.box, xi, a.x[j], a.cutoff2, g)) return false;
    dr = g.dr;
    r = g.r;
    double phi;
    eval_density(a, r, phi, dphidr);
  }
  double dvdr;
  eval_pair(a, r, v, dvdr);
  // dE/dr_ij = V'(r) + (F'(rho_i) + F'(rho_j)) phi'(r)   [paper eq. (2)]
  const double fpair = -(dvdr + fp_sum * dphidr) / r;
  fv = fpair * dr;
  rvir = fpair * r * r;
  return true;
}

// --- phase 1: electron density --------------------------------------------
void density_serial(const EamArgs& a, std::span<double> rho);
void density_critical_team(const EamArgs& a, std::span<double> rho);
void density_atomic_team(const EamArgs& a, std::span<double> rho);
void density_locks_team(const EamArgs& a, LockPool& locks,
                        std::span<double> rho);
/// `priv` must be pre-sized to >= the team size by the caller; each thread
/// zeroes and scatters into its own replica (NUMA first touch included).
void density_sap_team(const EamArgs& a, std::span<double> rho,
                      std::vector<std::vector<double>>& priv);
void density_rc_team(const EamArgs& a, std::span<double> rho);  // full list
void density_sdc_team(const EamArgs& a, const Partition& part,
                      std::span<double> rho);

// --- phase 2: embedding (strategy-independent) -----------------------------
/// Serial: fills fp[i] = dF/drho(rho_i), returns sum of F(rho_i).
double embed_serial(const EamArgs& a, std::span<const double> rho,
                    std::span<double> fp);
/// Team variant: every thread writes its partial energy to
/// `energy_parts[omp_get_thread_num()]` (assignment, no zeroing needed);
/// the caller sums the slots in thread order after the region for a
/// deterministic total. An enabled profiler records per-thread work/wait
/// spans under kProfPhaseEmbed (color 0: the phase has no color structure).
void embed_team(const EamArgs& a, std::span<const double> rho,
                std::span<double> fp, double* energy_parts);

/// Standalone embedding evaluation through the virtual interface, for
/// callers outside the fused pipeline (cell_direct's O(N^2) reference).
double embed_phase(const EamPotential& pot, std::span<const double> rho,
                   std::span<double> fp, bool parallel);

// --- phase 3: forces --------------------------------------------------------
void force_serial(const EamArgs& a, std::span<const double> fp,
                  std::span<Vec3> force, ForceSums& sums);
// Team kernels write this thread's pair-energy / virial partial sums to
// `energy_parts[tid]` / `virial_parts[tid]` (assignment).
void force_critical_team(const EamArgs& a, std::span<const double> fp,
                         std::span<Vec3> force, double* energy_parts,
                         double* virial_parts);
void force_atomic_team(const EamArgs& a, std::span<const double> fp,
                       std::span<Vec3> force, double* energy_parts,
                       double* virial_parts);
void force_locks_team(const EamArgs& a, LockPool& locks,
                      std::span<const double> fp, std::span<Vec3> force,
                      double* energy_parts, double* virial_parts);
void force_sap_team(const EamArgs& a, std::span<const double> fp,
                    std::span<Vec3> force, double* energy_parts,
                    double* virial_parts,
                    std::vector<std::vector<Vec3>>& priv);
void force_rc_team(const EamArgs& a, std::span<const double> fp,
                   std::span<Vec3> force, double* energy_parts,
                   double* virial_parts);  // full list
void force_sdc_team(const EamArgs& a, const Partition& part,
                    std::span<const double> fp, std::span<Vec3> force,
                    double* energy_parts, double* virial_parts);

}  // namespace sdcmd::detail
