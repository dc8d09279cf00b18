#include "hfmm/core/kernel_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hfmm/tree/hierarchy.hpp"

namespace hfmm::core {

const char* to_string(KernelType t) {
  switch (t) {
    case KernelType::kLaplace3d: return "laplace";
    case KernelType::kVanDerWaals: return "vdw";
  }
  return "?";
}

void KernelSpec::validate() const {
  if (type == KernelType::kLaplace3d) {
    if (!std::isfinite(softening))
      throw std::invalid_argument("KernelSpec: softening must be finite");
    return;
  }
  if (vdw_rmin.empty() || vdw_rmin.size() != vdw_epsilon.size())
    throw std::invalid_argument(
        "KernelSpec: vdw_rmin and vdw_epsilon must be non-empty and the "
        "same size (one entry per atom type)");
  for (const double r : vdw_rmin)
    if (!(r > 0.0) || !std::isfinite(r))
      throw std::invalid_argument("KernelSpec: vdw_rmin entries must be > 0");
  for (const double e : vdw_epsilon)
    if (!(e >= 0.0) || !std::isfinite(e))
      throw std::invalid_argument(
          "KernelSpec: vdw_epsilon entries must be >= 0");
  if (!(vdw_cutoff > 0.0) || !(vdw_cuton >= 0.0) || vdw_cuton >= vdw_cutoff)
    throw std::invalid_argument(
        "KernelSpec: need 0 <= vdw_cuton < vdw_cutoff");
  const Vec3 ext = vdw_box.extent();
  if (!(ext.x > 0.0) || !(ext.y > 0.0) || !(ext.z > 0.0))
    throw std::invalid_argument("KernelSpec: vdw_box must be non-degenerate");
  const double side = vdw_box.max_side();
  if (vdw_periodic) {
    const double skew =
        std::max(std::abs(ext.x - side),
                 std::max(std::abs(ext.y - side), std::abs(ext.z - side)));
    if (skew > 1e-12 * side)
      throw std::invalid_argument(
          "KernelSpec: periodic vdw_box must be a cube (minimum-image wrap "
          "assumes one period per axis)");
  }
  if (!(vdw_cutoff <= 0.25 * side))
    throw std::invalid_argument(
        "KernelSpec: vdw_cutoff must be <= vdw_box side / 4 so the "
        "d-separation U-list covers every in-range pair (see "
        "kernel_model.hpp)");
}

int KernelSpec::max_depth() const {
  const double cap =
      std::floor(std::log2(2.0 * vdw_box.max_side() / vdw_cutoff));
  return cap < tree::kMaxDepth ? static_cast<int>(cap) : tree::kMaxDepth;
}

}  // namespace hfmm::core
