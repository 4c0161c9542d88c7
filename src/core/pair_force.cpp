#include "core/pair_force.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/lock_pool.hpp"

namespace sdcmd {

namespace {

struct Args {
  const Box& box;
  std::span<const Vec3> x;
  const NeighborList& list;
  const PairPotential& pot;
  double cutoff2;
};

/// Shared per-pair body; returns false beyond the cutoff.
inline bool pair_terms(const Args& a, const Vec3& xi, std::uint32_t j,
                       Vec3& fv, double& v, double& w) {
  const Vec3 dr = a.box.minimum_image(xi, a.x[j]);
  const double r2 = norm2(dr);
  if (r2 >= a.cutoff2) return false;
  const double r = std::sqrt(r2);
  double dvdr;
  a.pot.evaluate(r, v, dvdr);
  const double fpair = -dvdr / r;
  fv = fpair * dr;
  w = fpair * r2;
  return true;
}

void run_serial(const Args& a, std::span<Vec3> force, PairForceResult& out) {
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    const Vec3 xi = a.x[i];
    Vec3 f_i{};
    for (std::uint32_t j : a.list.neighbors(i)) {
      Vec3 fv;
      double v, w;
      if (!pair_terms(a, xi, j, fv, v, w)) continue;
      f_i += fv;
      force[j] -= fv;
      out.energy += v;
      out.virial += w;
    }
    force[i] += f_i;
  }
}

void run_critical(const Args& a, std::span<Vec3> force,
                  PairForceResult& out) {
  double energy = 0.0, virial = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : energy, virial)
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    const Vec3 xi = a.x[i];
    for (std::uint32_t j : a.list.neighbors(i)) {
      Vec3 fv;
      double v, w;
      if (!pair_terms(a, xi, j, fv, v, w)) continue;
#pragma omp critical(sdcmd_pair_force)
      {
        force[i] += fv;
        force[j] -= fv;
      }
      energy += v;
      virial += w;
    }
  }
  out.energy = energy;
  out.virial = virial;
}

void run_atomic(const Args& a, std::span<Vec3> force, PairForceResult& out) {
  double energy = 0.0, virial = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : energy, virial)
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    const Vec3 xi = a.x[i];
    Vec3 f_i{};
    for (std::uint32_t j : a.list.neighbors(i)) {
      Vec3 fv;
      double v, w;
      if (!pair_terms(a, xi, j, fv, v, w)) continue;
      f_i += fv;
#pragma omp atomic
      force[j].x -= fv.x;
#pragma omp atomic
      force[j].y -= fv.y;
#pragma omp atomic
      force[j].z -= fv.z;
      energy += v;
      virial += w;
    }
#pragma omp atomic
    force[i].x += f_i.x;
#pragma omp atomic
    force[i].y += f_i.y;
#pragma omp atomic
    force[i].z += f_i.z;
  }
  out.energy = energy;
  out.virial = virial;
}

void run_locks(const Args& a, LockPool& locks, std::span<Vec3> force,
               PairForceResult& out) {
  double energy = 0.0, virial = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : energy, virial)
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    const Vec3 xi = a.x[i];
    Vec3 f_i{};
    for (std::uint32_t j : a.list.neighbors(i)) {
      Vec3 fv;
      double v, w;
      if (!pair_terms(a, xi, j, fv, v, w)) continue;
      f_i += fv;
      {
        LockPool::Guard guard(locks, j);
        force[j] -= fv;
      }
      energy += v;
      virial += w;
    }
    LockPool::Guard guard(locks, i);
    force[i] += f_i;
  }
  out.energy = energy;
  out.virial = virial;
}

void run_sap(const Args& a, std::span<Vec3> force, PairForceResult& out,
             std::vector<std::vector<Vec3>>& priv) {
  const std::size_t n = a.x.size();
  const int threads = omp_get_max_threads();
  priv.resize(static_cast<std::size_t>(threads));
  for (auto& b : priv) b.assign(n, Vec3{});

  double energy = 0.0, virial = 0.0;
#pragma omp parallel reduction(+ : energy, virial)
  {
    auto& mine = priv[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3 xi = a.x[i];
      for (std::uint32_t j : a.list.neighbors(i)) {
        Vec3 fv;
        double v, w;
        if (!pair_terms(a, xi, j, fv, v, w)) continue;
        mine[i] += fv;
        mine[j] -= fv;
        energy += v;
        virial += w;
      }
    }
#pragma omp for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      Vec3 sum{};
      for (int t = 0; t < threads; ++t) {
        sum += priv[static_cast<std::size_t>(t)][i];
      }
      force[i] += sum;
    }
  }
  out.energy = energy;
  out.virial = virial;
}

void run_rc(const Args& a, std::span<Vec3> force, PairForceResult& out) {
  SDCMD_REQUIRE(a.list.mode() == NeighborMode::Full,
                "RC kernels need a full neighbor list");
  double energy = 0.0, virial = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : energy, virial)
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    const Vec3 xi = a.x[i];
    Vec3 f_i{};
    for (std::uint32_t j : a.list.neighbors(i)) {
      Vec3 fv;
      double v, w;
      if (!pair_terms(a, xi, j, fv, v, w)) continue;
      f_i += fv;
      energy += 0.5 * v;
      virial += 0.5 * w;
    }
    force[i] = f_i;
  }
  out.energy = energy;
  out.virial = virial;
}

void run_sdc(const Args& a, const Partition& part, std::span<Vec3> force,
             PairForceResult& out, bool dynamic_schedule) {
  SDCMD_REQUIRE(part.atom_count() == a.x.size(),
                "partition is stale: rebuild the SDC schedule");
  const int colors = part.color_count();
  double energy = 0.0, virial = 0.0;

  auto slot_body = [&](std::size_t slot, double& e, double& w_acc) {
    for (std::uint32_t i : part.atoms_in_slot(slot)) {
      const Vec3 xi = a.x[i];
      Vec3 f_i{};
      for (std::uint32_t j : a.list.neighbors(i)) {
        Vec3 fv;
        double v, w;
        if (!pair_terms(a, xi, j, fv, v, w)) continue;
        f_i += fv;
        force[j] -= fv;
        e += v;
        w_acc += w;
      }
      force[i] += f_i;
    }
  };

#pragma omp parallel reduction(+ : energy, virial)
  {
    for (int c = 0; c < colors; ++c) {
      const std::size_t begin = part.color_begin(c);
      const std::size_t end = part.color_end(c);
      if (dynamic_schedule) {
#pragma omp for schedule(dynamic)
        for (std::size_t slot = begin; slot < end; ++slot) {
          slot_body(slot, energy, virial);
        }
      } else {
#pragma omp for schedule(static)
        for (std::size_t slot = begin; slot < end; ++slot) {
          slot_body(slot, energy, virial);
        }
      }
    }
  }
  out.energy = energy;
  out.virial = virial;
}

}  // namespace

PairForceComputer::PairForceComputer(const PairPotential& potential,
                                     PairForceConfig config)
    : potential_(potential),
      config_(config),
      t_force_(timers_.index("force")) {}

PairForceComputer::~PairForceComputer() = default;

void PairForceComputer::attach_schedule(const Box& box,
                                        double interaction_range) {
  if (config_.strategy != ReductionStrategy::Sdc) return;
  schedule_ =
      std::make_unique<SdcSchedule>(box, interaction_range, config_.sdc);
}

void PairForceComputer::set_strategy(ReductionStrategy strategy) {
  if (strategy == config_.strategy) return;
  SDCMD_REQUIRE(required_mode(strategy) == required_mode(config_.strategy),
                "cannot hot-swap " + to_string(config_.strategy) + " -> " +
                    to_string(strategy) +
                    ": the swap would change the neighbor-list mode");
  config_.strategy = strategy;
  if (strategy != ReductionStrategy::Sdc) schedule_.reset();
}

void PairForceComputer::on_neighbor_rebuild(
    std::span<const Vec3> positions) {
  if (config_.strategy != ReductionStrategy::Sdc) return;
  SDCMD_REQUIRE(schedule_ != nullptr,
                "attach_schedule must run before on_neighbor_rebuild");
  schedule_->rebuild(positions);
}

PairForceResult PairForceComputer::compute(const Box& box,
                                           std::span<const Vec3> positions,
                                           const NeighborList& list,
                                           std::span<Vec3> force) {
  SDCMD_REQUIRE(force.size() == positions.size(),
                "force array must match the atom count");
  SDCMD_REQUIRE(list.atom_count() == positions.size(),
                "neighbor list is stale");
  SDCMD_REQUIRE(list.mode() == required_mode(config_.strategy),
                "neighbor list mode does not match the strategy");
  SDCMD_REQUIRE(list.cutoff() >= potential_.cutoff(),
                "neighbor list cutoff shorter than the potential range");

  const double cutoff = potential_.cutoff();
  Args args{box, positions, list, potential_, cutoff * cutoff};
  std::fill(force.begin(), force.end(), Vec3{});

  PairForceResult result;
  ScopedTimer timer(timers_.slot(t_force_));
  switch (config_.strategy) {
    case ReductionStrategy::Serial:
      run_serial(args, force, result);
      break;
    case ReductionStrategy::Critical:
      run_critical(args, force, result);
      break;
    case ReductionStrategy::Atomic:
      run_atomic(args, force, result);
      break;
    case ReductionStrategy::LockStriped:
      if (!locks_) locks_ = std::make_unique<LockPool>();
      run_locks(args, *locks_, force, result);
      break;
    case ReductionStrategy::ArrayPrivatization:
      run_sap(args, force, result, sap_force_);
      break;
    case ReductionStrategy::RedundantComputation:
      run_rc(args, force, result);
      break;
    case ReductionStrategy::Sdc:
      SDCMD_REQUIRE(schedule_ != nullptr && schedule_->built(),
                    "SDC schedule not built");
      run_sdc(args, schedule_->partition(), force, result,
              config_.dynamic_schedule);
      break;
  }
  return result;
}

}  // namespace sdcmd
