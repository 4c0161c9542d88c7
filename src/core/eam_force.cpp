#include "core/eam_force.hpp"

#include <omp.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "core/detail/eam_kernels.hpp"
#include "core/lock_pool.hpp"

namespace sdcmd {

/// Reusable per-thread replicas for the ArrayPrivatization kernels. Kept
/// out of the header so callers don't depend on the buffer layout.
struct EamForceComputer::SapWorkspace {
  std::vector<std::vector<double>> rho;
  std::vector<std::vector<Vec3>> force;

  std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto& b : rho) total += b.capacity() * sizeof(double);
    for (const auto& b : force) total += b.capacity() * sizeof(Vec3);
    return total;
  }
};

/// Per-pair geometry/spline cache, indexed by CSR slot (neigh_index[i] + k).
/// The density phase writes every slot; the force phase reads them back
/// instead of recomputing minimum image + sqrt + density spline. Reused
/// across steps: resize() keeps capacity when the pair count shrinks, so
/// steady-state steps never reallocate.
struct EamForceComputer::PairCache {
  std::vector<Vec3> dr;
  std::vector<double> r;
  std::vector<double> dphidr;

  void resize(std::size_t pairs) {
    dr.resize(pairs);
    r.resize(pairs);
    dphidr.resize(pairs);
  }

  detail::PairCacheRefs refs() {
    return detail::PairCacheRefs{dr.data(), r.data(), dphidr.data()};
  }

  std::size_t bytes() const {
    return dr.capacity() * sizeof(Vec3) +
           (r.capacity() + dphidr.capacity()) * sizeof(double);
  }
};

/// Owned storage behind detail::SoaView: the persistent x/y/z mirror of the
/// positions, refreshed inside the fused region every step.
struct EamForceComputer::SoaWorkspace {
  std::vector<double> x, y, z;  ///< n+1 slots; slot n backs the sentinel

  void resize(std::size_t n) {
    x.resize(n + 1);
    y.resize(n + 1);
    z.resize(n + 1);
    // Sentinel lanes gather slot n before their mask applies; keep it at a
    // finite value so masked arithmetic stays exception-free.
    x[n] = 0.0;
    y[n] = 0.0;
    z[n] = 0.0;
  }

  std::size_t bytes() const {
    return (x.capacity() + y.capacity() + z.capacity()) * sizeof(double);
  }
};

EamForceComputer::EamForceComputer(const EamPotential& potential,
                                   EamForceConfig config)
    : potential_(potential),
      config_(config),
      cache_(std::make_unique<PairCache>()),
      t_density_(timers_.index("density")),
      t_embed_(timers_.index("embed")),
      t_force_(timers_.index("force")) {
  if (config_.strategy == ReductionStrategy::ArrayPrivatization) {
    sap_ = std::make_unique<SapWorkspace>();
  }
  if (config_.strategy == ReductionStrategy::LockStriped) {
    locks_ = std::make_unique<LockPool>();
  }
}

EamForceComputer::~EamForceComputer() = default;

void EamForceComputer::attach_schedule(const Box& box,
                                       double interaction_range) {
  if (config_.strategy == ReductionStrategy::Sdc) {
    schedule_ =
        std::make_unique<SdcSchedule>(box, interaction_range, config_.sdc);
  }
}

void EamForceComputer::set_strategy(ReductionStrategy strategy) {
  if (strategy == config_.strategy) return;
  SDCMD_REQUIRE(required_mode(strategy) == required_mode(config_.strategy),
                "cannot hot-swap " + to_string(config_.strategy) + " -> " +
                    to_string(strategy) +
                    ": the swap would change the neighbor-list mode");
  config_.strategy = strategy;
  if (strategy == ReductionStrategy::ArrayPrivatization && sap_ == nullptr) {
    sap_ = std::make_unique<SapWorkspace>();
  }
  if (strategy == ReductionStrategy::LockStriped && locks_ == nullptr) {
    locks_ = std::make_unique<LockPool>();
  }
  if (strategy != ReductionStrategy::Sdc) {
    // Free the sweep schedule; a later re-promotion rebuilds it via
    // attach_schedule + on_neighbor_rebuild.
    schedule_.reset();
  }
}

void EamForceComputer::on_neighbor_rebuild(std::span<const Vec3> positions) {
  if (config_.strategy == ReductionStrategy::Sdc) {
    SDCMD_REQUIRE(schedule_ != nullptr,
                  "attach_schedule must run before on_neighbor_rebuild");
    schedule_->rebuild(positions);
  }
}

EamForceResult EamForceComputer::compute(const Box& box,
                                         std::span<const Vec3> positions,
                                         const NeighborList& list,
                                         std::span<double> rho,
                                         std::span<double> fp,
                                         std::span<Vec3> force) {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(rho.size() == n && fp.size() == n && force.size() == n,
                "output arrays must match the atom count");
  SDCMD_REQUIRE(list.atom_count() == n, "neighbor list is stale");
  SDCMD_REQUIRE(list.mode() == required_mode(config_.strategy),
                "strategy " + to_string(config_.strategy) + " needs a " +
                    (required_mode(config_.strategy) == NeighborMode::Full
                         ? std::string("full")
                         : std::string("half")) +
                    " neighbor list");
  SDCMD_REQUIRE(list.cutoff() >= potential_.cutoff(),
                "neighbor list cutoff shorter than the potential range");
  // All preconditions are checked here, BEFORE the parallel region opens:
  // the kernels themselves must never throw.
  if (config_.strategy == ReductionStrategy::Sdc) {
    SDCMD_REQUIRE(schedule_ != nullptr && schedule_->built(),
                  "SDC schedule not built; call attach_schedule and "
                  "on_neighbor_rebuild first");
    SDCMD_REQUIRE(schedule_->partition().atom_count() == n,
                  "partition is stale: rebuild the SDC schedule after the "
                  "neighbor list");
  }

  const double cutoff = potential_.cutoff();
  detail::EamArgs args{box,        positions,
                       list,       potential_,
                       cutoff * cutoff, config_.dynamic_schedule};
  if (config_.use_spline_tables) {
    // Devirtualize: tabulated potentials expose their spline knots as flat
    // POD tables the inner loops can evaluate inline.
    const EamSplineTables* tables = potential_.spline_tables();
    if (tables != nullptr && tables->valid()) args.tables = tables;
  }
  const bool rc =
      config_.strategy == ReductionStrategy::RedundantComputation;
  const bool caching = config_.use_pair_cache && !rc;
  // SoA fast path: RC's full-list gathers only, and only with packed spline
  // tables and a padded-tile list. Any miss falls back to the scalar loops.
  const bool soa_on = rc && config_.use_soa_path && args.tables != nullptr &&
                      args.tables->packed_valid() && list.has_padded_tiles();
  if (soa_on) {
    if (soa_ == nullptr) soa_ = std::make_unique<SoaWorkspace>();
    soa_->resize(n);
    detail::SoaView sv;
    sv.x = soa_->x.data();
    sv.y = soa_->y.data();
    sv.z = soa_->z.data();
    sv.tile_index = list.tile_index().data();
    sv.tiles = list.padded_list().data();
    sv.sent = list.pad_sentinel();
    const Vec3 len = box.lengths();
    sv.lx = box.periodic(0) ? len.x : 0.0;
    sv.ly = box.periodic(1) ? len.y : 0.0;
    sv.lz = box.periodic(2) ? len.z : 0.0;
    sv.ilx = box.periodic(0) ? 1.0 / len.x : 0.0;
    sv.ily = box.periodic(1) ? 1.0 / len.y : 0.0;
    sv.ilz = box.periodic(2) ? 1.0 / len.z : 0.0;
    sv.density = args.tables->density_packed;
    sv.pair = args.tables->pair_packed;
    sv.embed = args.tables->embed_packed;
    args.soa = sv;
  } else if (caching) {
    cache_->resize(list.pair_count());
    args.cache = cache_->refs();
  }

  if (profiler_.enabled()) {
    // Shape the sample store to the current sweep; the (string-building)
    // configure call runs only when the shape actually changed, so the
    // steady state does no string work.
    const int colors = config_.strategy == ReductionStrategy::Sdc
                           ? schedule_->color_count()
                           : 1;
    const int threads = max_threads();
    if (colors != prof_colors_ || threads != prof_threads_) {
      profiler_.configure({"density", "embed", "force"}, colors, threads);
      prof_colors_ = colors;
      prof_threads_ = threads;
    }
    profiler_.begin_step();
    args.profiler = &profiler_;
  }

  const bool hw = hw_profiler_.enabled();
  if (hw) {
    // Same reshape discipline as the sweep profiler: string work only when
    // the thread count actually changed.
    const int threads =
        config_.strategy == ReductionStrategy::Serial ? 1 : max_threads();
    if (threads != hw_threads_) {
      hw_profiler_.configure({"density", "embed", "force"}, threads);
      hw_threads_ = threads;
    }
    hw_profiler_.begin_step();
  }

  // SoA position mirror refresh targets (null when the path is off).
  double* sx = soa_on ? soa_->x.data() : nullptr;
  double* sy = soa_on ? soa_->y.data() : nullptr;
  double* sz = soa_on ? soa_->z.data() : nullptr;

  EamForceResult result;
  if (config_.strategy == ReductionStrategy::Serial) {
    std::fill(rho.begin(), rho.end(), 0.0);
    std::fill(force.begin(), force.end(), Vec3{});
    if (hw) hw_profiler_.thread_begin(0);
    {
      ScopedTimer timer(timers_.slot(t_density_));
      detail::density_serial(args, rho);
    }
    if (hw) hw_profiler_.thread_mark(0, 0);
    {
      ScopedTimer timer(timers_.slot(t_embed_));
      result.embedding_energy = detail::embed_serial(args, rho, fp);
    }
    if (hw) hw_profiler_.thread_mark(1, 0);
    {
      ScopedTimer timer(timers_.slot(t_force_));
      detail::ForceSums sums;
      detail::force_serial(args, fp, force, sums);
      result.pair_energy = sums.pair_energy;
      result.virial = sums.virial;
    }
    if (hw) hw_profiler_.thread_mark(2, 0);
  } else {
    // Fused pipeline: ONE parallel region covers zeroing, density, embed
    // and force, so each step pays a single fork/join instead of three
    // (plus serial zeroing) - the paper's "one parallel region per sweep"
    // idea extended to the whole step. Phase boundaries are the barriers
    // already ending each team kernel; the master clocks them so the
    // per-phase timers keep working.
    const int slots = max_threads();
    embed_parts_.assign(static_cast<std::size_t>(slots), 0.0);
    energy_parts_.assign(static_cast<std::size_t>(slots), 0.0);
    virial_parts_.assign(static_cast<std::size_t>(slots), 0.0);
    if (sap_ != nullptr) {
      // Replica *zeroing* happens inside the team kernels (each thread
      // first-touches its own replica); only the outer vector is sized here.
      sap_->rho.resize(static_cast<std::size_t>(slots));
      sap_->force.resize(static_cast<std::size_t>(slots));
    }
    int team = 1;
    double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
#pragma omp parallel
    {
      // Counter baselines are per-thread state, so unlike the master-only
      // clock reads below, every thread takes its own reading. The group fd
      // is opened lazily by the owning thread on first use.
      if (hw) hw_profiler_.thread_begin(omp_get_thread_num());
#pragma omp master
      {
        team = omp_get_num_threads();
        t0 = wall_time();
      }
      // First-touch zeroing: distributed with the same static schedule as
      // the atom sweeps so each page lands on the NUMA node of the thread
      // that will process it. The SoA position mirror refreshes in the
      // same sweep (one pass over the atoms, same page placement). The
      // implicit barrier orders both before the density scatter.
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < n; ++i) {
        rho[i] = 0.0;
        fp[i] = 0.0;
        force[i] = Vec3{};
        if (sx != nullptr) {
          sx[i] = positions[i].x;
          sy[i] = positions[i].y;
          sz[i] = positions[i].z;
        }
      }
      switch (config_.strategy) {
        case ReductionStrategy::Critical:
          detail::density_critical_team(args, rho);
          break;
        case ReductionStrategy::Atomic:
          detail::density_atomic_team(args, rho);
          break;
        case ReductionStrategy::LockStriped:
          detail::density_locks_team(args, *locks_, rho);
          break;
        case ReductionStrategy::ArrayPrivatization:
          detail::density_sap_team(args, rho, sap_->rho);
          break;
        case ReductionStrategy::RedundantComputation:
          detail::density_rc_team(args, rho);
          break;
        case ReductionStrategy::Sdc:
          detail::density_sdc_team(args, schedule_->partition(), rho);
          break;
        case ReductionStrategy::Serial:
          break;  // handled above; unreachable
      }
      // Each team kernel ends at a barrier, so the master's clock reads
      // (and every thread's own counter reads) are true phase boundaries.
      if (hw) hw_profiler_.thread_mark(0, omp_get_thread_num());
#pragma omp master
      t1 = wall_time();
      detail::embed_team(args, rho, fp, embed_parts_.data());
      if (hw) hw_profiler_.thread_mark(1, omp_get_thread_num());
#pragma omp master
      t2 = wall_time();
      switch (config_.strategy) {
        case ReductionStrategy::Critical:
          detail::force_critical_team(args, fp, force, energy_parts_.data(),
                                      virial_parts_.data());
          break;
        case ReductionStrategy::Atomic:
          detail::force_atomic_team(args, fp, force, energy_parts_.data(),
                                    virial_parts_.data());
          break;
        case ReductionStrategy::LockStriped:
          detail::force_locks_team(args, *locks_, fp, force,
                                   energy_parts_.data(),
                                   virial_parts_.data());
          break;
        case ReductionStrategy::ArrayPrivatization:
          detail::force_sap_team(args, fp, force, energy_parts_.data(),
                                 virial_parts_.data(), sap_->force);
          break;
        case ReductionStrategy::RedundantComputation:
          detail::force_rc_team(args, fp, force, energy_parts_.data(),
                                virial_parts_.data());
          break;
        case ReductionStrategy::Sdc:
          detail::force_sdc_team(args, schedule_->partition(), fp, force,
                                 energy_parts_.data(), virial_parts_.data());
          break;
        case ReductionStrategy::Serial:
          break;  // handled above; unreachable
      }
      if (hw) hw_profiler_.thread_mark(2, omp_get_thread_num());
#pragma omp master
      t3 = wall_time();
    }
    timers_.slot(t_density_).add_lap(t1 - t0);  // includes the zeroing sweep
    timers_.slot(t_embed_).add_lap(t2 - t1);
    timers_.slot(t_force_).add_lap(t3 - t2);
    // Sum the per-thread partials in thread order: deterministic for a
    // fixed team size (unlike an OpenMP reduction's arrival order).
    double embed_energy = 0.0, pair_energy = 0.0, virial = 0.0;
    for (int t = 0; t < team; ++t) {
      embed_energy += embed_parts_[static_cast<std::size_t>(t)];
      pair_energy += energy_parts_[static_cast<std::size_t>(t)];
      virial += virial_parts_[static_cast<std::size_t>(t)];
    }
    result.embedding_energy = embed_energy;
    result.pair_energy = pair_energy;
    result.virial = virial;
  }

  // Exact work accounting (derived, not sampled: list sizes are exact).
  stats_.density_pair_visits += list.pair_count();
  stats_.force_pair_visits += list.pair_count();
  const bool scatters = config_.strategy != ReductionStrategy::RedundantComputation;
  if (scatters) stats_.scatter_updates += 2 * list.pair_count();
  if (config_.strategy == ReductionStrategy::Sdc) {
    stats_.color_sweeps += 2 * static_cast<std::size_t>(
                                   schedule_->color_count());
  }
  if (sap_) {
    stats_.private_array_bytes =
        std::max(stats_.private_array_bytes, sap_->bytes());
  }
  if (soa_on) {
    ++stats_.soa_steps;
    stats_.soa_pad_fraction = list.pad_fraction();
    stats_.pair_cache_bytes =
        std::max(stats_.pair_cache_bytes, soa_->bytes());
  } else {
    stats_.soa_pad_fraction = 0.0;
    if (caching) {
      stats_.cache_store_slots += list.pair_count();
      stats_.cache_read_slots += list.pair_count();
      stats_.pair_cache_bytes =
          std::max(stats_.pair_cache_bytes, cache_->bytes());
    }
  }
  return result;
}

int EamForceComputer::neighbor_pad_width() const {
  if (config_.strategy != ReductionStrategy::RedundantComputation ||
      !config_.use_soa_path || !config_.use_spline_tables) {
    return 0;
  }
  const EamSplineTables* tables = potential_.spline_tables();
  if (tables == nullptr || !tables->packed_valid()) return 0;
  return detail::kSoaPadWidth;
}

EamForceResult EamForceComputer::compute_serial_reference(
    const Box& box, std::span<const Vec3> positions, const NeighborList& list,
    std::span<double> rho, std::span<double> fp,
    std::span<Vec3> force) const {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(rho.size() == n && fp.size() == n && force.size() == n,
                "output arrays must match the atom count");
  SDCMD_REQUIRE(list.atom_count() == n, "neighbor list is stale");
  SDCMD_REQUIRE(list.mode() == NeighborMode::Half,
                "the serial reference kernels walk a half neighbor list");
  const double cutoff = potential_.cutoff();
  detail::EamArgs args{box,        positions,
                       list,       potential_,
                       cutoff * cutoff, config_.dynamic_schedule};
  if (config_.use_spline_tables) {
    const EamSplineTables* tables = potential_.spline_tables();
    if (tables != nullptr && tables->valid()) args.tables = tables;
  }
  std::fill(rho.begin(), rho.end(), 0.0);
  std::fill(force.begin(), force.end(), Vec3{});
  EamForceResult result;
  detail::density_serial(args, rho);
  result.embedding_energy = detail::embed_serial(args, rho, fp);
  detail::ForceSums sums;
  detail::force_serial(args, fp, force, sums);
  result.pair_energy = sums.pair_energy;
  result.virial = sums.virial;
  return result;
}

void EamForceComputer::reset_instrumentation() {
  timers_.reset();
  stats_ = EamKernelStats{};
}

}  // namespace sdcmd
