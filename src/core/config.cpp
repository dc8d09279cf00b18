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

const char* to_string(HierarchyMode m) {
  switch (m) {
    case HierarchyMode::kDense: return "dense";
    case HierarchyMode::kSparse: return "sparse";
    case HierarchyMode::kAuto: return "auto";
    case HierarchyMode::kAdaptive: return "adaptive";
  }
  return "?";
}

HierarchyMode default_hierarchy_mode() {
  static const HierarchyMode value = [] {
    static constexpr const char* kChoices[] = {"dense", "sparse", "auto",
                                               "adaptive"};
    switch (env::parse_choice("HFMM_HIERARCHY", kChoices, 2)) {
      case 0: return HierarchyMode::kDense;
      case 1: return HierarchyMode::kSparse;
      case 3: return HierarchyMode::kAdaptive;
      default: return HierarchyMode::kAuto;
    }
  }();
  return value;
}

int default_ncrit() {
  static const int value = static_cast<int>(
      env::parse_int("HFMM_NCRIT", 0, 0, 100000,
                     "a non-negative split threshold; 0 = cost model"));
  return value;
}

int default_adaptive_max_depth() {
  static const int value = static_cast<int>(env::parse_int(
      "HFMM_ADAPTIVE_MAX_DEPTH", 7, 2, 10, "a depth in [2, 10]"));
  return value;
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
  if (sparse_threshold < 0.0 || sparse_threshold > 1.0)
    throw std::invalid_argument(
        "FmmConfig: sparse_threshold must be in [0, 1]");
  if (ncrit < 0)
    throw std::invalid_argument(
        "FmmConfig: ncrit must be positive (or 0 = cost-model selection)");
  if (adaptive_max_depth < 2 || adaptive_max_depth > 10)
    throw std::invalid_argument(
        "FmmConfig: adaptive_max_depth must be in [2, 10]");
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
