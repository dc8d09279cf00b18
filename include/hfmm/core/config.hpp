#pragma once
// Configuration of the full O(N) solver. FmmConfig, with its KernelSpec, is
// all the configuration a solve has: every default below is a constant, and
// nothing is read from the environment.

#include "hfmm/anderson/params.hpp"
#include "hfmm/core/kernel_model.hpp"
#include "hfmm/dp/halo.hpp"
#include "hfmm/dp/machine.hpp"
#include "hfmm/dp/multigrid.hpp"

namespace hfmm::core {

/// How the identical algorithm is executed (DESIGN.md Section 6).
enum class ExecutionMode {
  kSequential,    ///< single thread — the oracle
  kThreads,       ///< shared-memory parallel over boxes
  kDataParallel,  ///< simulated CM-style VU machine with counted comm
};

/// How translations are applied (paper Section 3.3.3):
enum class AggregationMode {
  kGemv,  ///< one matrix-vector product per box (BLAS-2)
  kGemm,  ///< boxes aggregated into matrix-matrix products (BLAS-3)
};

const char* to_string(ExecutionMode m);
const char* to_string(AggregationMode m);

struct FmmConfig {
  anderson::Params params = anderson::params_d5_k12();
  int depth = -1;                    ///< hierarchy depth; -1 = automatic
  /// Occupancy target for the automatic depth rule (Section 2.3: leaf count
  /// proportional to N). 0 = derive from K: traversal work per box grows as
  /// K^2 while near-field work grows as occupancy^2, so the balancing
  /// occupancy scales with K (and drops when supernodes cut traversal 4.6x).
  double particles_per_leaf = 0.0;
  int separation = 2;                ///< d-separation near field (paper: 2)
  bool supernodes = false;           ///< Section 2.3 supernode optimization
  bool with_gradient = false;        ///< also compute field gradients
  /// The physics this solve evaluates (DESIGN.md §16): Laplace 3-D runs the
  /// full Anderson far-field chain, short-range kernels (van der Waals)
  /// reuse the tree/near-field machinery with the far phases as empty DAG
  /// nodes.
  KernelSpec kernel{};
  ExecutionMode mode = ExecutionMode::kThreads;
  /// The BLAS call applied to each slab of gathered boxes that share a
  /// translation matrix: one gemm (BLAS-3) or one vecmat per box (BLAS-2,
  /// the Table 3 reference), the same products in the same order. The
  /// data-parallel executor applies every translation with a per-box vecmat
  /// and ignores this field, as it ignores `supernodes`.
  AggregationMode aggregation = AggregationMode::kGemm;

  // Data-parallel execution knobs (ignored in the other modes).
  dp::MachineConfig machine{2, 2, 2};
  dp::HaloStrategy halo = dp::HaloStrategy::kGhostSections;
  dp::EmbedMethod embed = dp::EmbedMethod::kLocalCopy;

  void validate() const;
};

}  // namespace hfmm::core
