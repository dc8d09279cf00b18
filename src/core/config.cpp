#include "hfmm/core/config.hpp"

#include <stdexcept>

#include "hfmm/util/env.hpp"

namespace hfmm::core {

const char* to_string(ExecutionMode m) {
  switch (m) {
    case ExecutionMode::kSequential: return "seq";
    case ExecutionMode::kThreads: return "threads";
    case ExecutionMode::kDataParallel: return "dp";
    case ExecutionMode::kDistributed: return "dist";
  }
  return "?";
}

const char* to_string(DistPartitioner m) {
  switch (m) {
    case DistPartitioner::kCost: return "cost";
    case DistPartitioner::kBodies: return "bodies";
  }
  return "?";
}

const char* to_string(AggregationMode m) {
  switch (m) {
    case AggregationMode::kGemv: return "gemv";
    case AggregationMode::kGemm: return "gemm";
    case AggregationMode::kGemmBatch: return "gemm-batch";
  }
  return "?";
}

int default_dist_ranks() {
  static const int value = static_cast<int>(
      env::parse_int("HFMM_DIST_RANKS", 4, 1, 64, "a rank count in [1, 64]"));
  return value;
}

DistPartitioner default_dist_partitioner() {
  static const DistPartitioner value = [] {
    static constexpr const char* kChoices[] = {"cost", "bodies"};
    switch (env::parse_choice("HFMM_DIST_PARTITIONER", kChoices, 0)) {
      case 1: return DistPartitioner::kBodies;
      default: return DistPartitioner::kCost;
    }
  }();
  return value;
}

void FmmConfig::validate() const {
  params.validate();
  kernel.validate();
  if (separation < 1)
    throw std::invalid_argument("FmmConfig: separation must be >= 1");
  if (depth != -1 && depth < 2)
    throw std::invalid_argument("FmmConfig: explicit depth must be >= 2");
  if (particles_per_leaf < 0.0)
    throw std::invalid_argument(
        "FmmConfig: particles_per_leaf must be positive (or 0 = automatic)");
  if (mode == ExecutionMode::kDataParallel && !machine.valid())
    throw std::invalid_argument("FmmConfig: invalid VU grid");
  if (dist_ranks < 1 || dist_ranks > 64)
    throw std::invalid_argument("FmmConfig: dist_ranks must be in [1, 64]");
  if (supernodes && separation != 2)
    throw std::invalid_argument(
        "FmmConfig: supernodes are defined for separation 2 (paper "
        "Section 2.3)");
}

}  // namespace hfmm::core
