#include "hfmm/core/config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "hfmm/tree/hierarchy.hpp"

namespace hfmm::core {

const char* to_string(ExecutionMode m) {
  switch (m) {
    case ExecutionMode::kSequential: return "seq";
    case ExecutionMode::kThreads: return "threads";
    case ExecutionMode::kDataParallel: return "dp";
  }
  return "?";
}

const char* to_string(AggregationMode m) {
  switch (m) {
    case AggregationMode::kGemv: return "gemv";
    case AggregationMode::kGemm: return "gemm";
  }
  return "?";
}

void FmmConfig::validate() const {
  params.validate();
  kernel.validate();
  if (separation < 1)
    throw std::invalid_argument("FmmConfig: separation must be >= 1");
  if (depth != -1 && (depth < 2 || depth > tree::kMaxDepth))
    throw std::invalid_argument(
        "FmmConfig: explicit depth must be in [2, " +
        std::to_string(tree::kMaxDepth) +
        "] (a deeper tree needs GBs of flat per-box arrays at any N)");
  if (depth != -1 && !kernel.far_field_capable() && depth > kernel.max_depth())
    throw std::invalid_argument(
        "FmmConfig: explicit depth " + std::to_string(depth) +
        " puts the leaf side below half the vdw_cutoff, so the near field "
        "would drop pairs within the cutoff; the deepest covered depth is " +
        std::to_string(kernel.max_depth()));
  if (!(particles_per_leaf >= 0.0) || !std::isfinite(particles_per_leaf))
    throw std::invalid_argument(
        "FmmConfig: particles_per_leaf must be finite and positive (or 0 = "
        "automatic)");
  if (mode == ExecutionMode::kDataParallel && !machine.valid())
    throw std::invalid_argument("FmmConfig: invalid VU grid");
  if (supernodes && separation != 2)
    throw std::invalid_argument(
        "FmmConfig: supernodes are defined for separation 2 (paper "
        "Section 2.3)");
}

}  // namespace hfmm::core
