// Built only under SDCMD_VECTOR_REPORT (see src/core/CMakeLists.txt).
//
// Instantiates the two SoA gather loops - RC's full-list density and force
// sweeps, the loops the padded-tile layout exists to vectorize - in
// isolation, so every "loop vectorized" report line pointing into
// eam_soa.hpp from this translation unit is attributable to them. The CI
// vectorization smoke builds exactly this object and fails when the
// compiler stops reporting the loops as vectorized.
#include <cstddef>

#include "core/detail/eam_soa.hpp"

namespace sdcmd::detail {

double soa_vectorization_probe(const SoaView& s, double cutoff2,
                               const double* fp, std::size_t i,
                               SoaForceOut& out) {
  soa_rc_force_atom(s, cutoff2, fp, fp[i], i, out);
  return soa_rc_density_atom(s, cutoff2, i);
}

}  // namespace sdcmd::detail
