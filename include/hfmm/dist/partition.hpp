#pragma once
// Geometric partitioner for the distributed executor (DESIGN.md Section 18).
//
// The counting sort already orders particles by leaf flat index, and the
// sparse active sets list the occupied leaves in the same ascending order —
// so a partition into R contiguous ACTIVE-LEAF runs is simultaneously a
// Morton-style range split of the domain (each run is a compact region of
// the z-major box order) and a contiguous split of the sorted particle
// array. No data movement is needed to realize it: rank r's bodies are the
// slice [body_begin[r], body_begin[r+1]) of the globally sorted arrays.
//
// The split itself reuses exec::weighted_split over the active-set cost
// model: each leaf weighs its near-field pair count plus its particle count
// (standing in for the P2M/L2P work).

#include <cstdint>
#include <span>
#include <vector>

namespace hfmm::dist {

/// A split of the active leaves (and thereby the sorted bodies) into
/// contiguous per-rank runs. `ranks` is the EFFECTIVE rank count — at most
/// the requested count, clamped so every rank owns at least one leaf.
struct Partition {
  int ranks = 1;
  /// R+1 active-leaf bounds: rank r owns active leaves
  /// [leaf_begin[r], leaf_begin[r+1]).
  std::vector<std::uint32_t> leaf_begin;
  /// R+1 sorted-particle bounds aligned with leaf_begin.
  std::vector<std::uint32_t> body_begin;
  /// Modeled cost per rank (sum of the split weights).
  std::vector<std::uint64_t> rank_cost;
  /// (max rank cost) / (mean rank cost), >= 1.
  double cost_imbalance = 1.0;
};

/// Splits `leaf_count.size()` active leaves into at most `ranks` runs.
/// `leaf_cost` / `near_cost` are the sparse cost model's per-active-leaf
/// entries (particle count, near-field pair count); a leaf weighs
/// leaf_cost + near_cost + 1. `leaf_count` is the particle count per active
/// leaf in the same order, prefix-summed into body_begin.
Partition partition_leaves(int ranks, std::span<const std::uint64_t> leaf_cost,
                           std::span<const std::uint64_t> near_cost,
                           std::span<const std::uint32_t> leaf_count);

}  // namespace hfmm::dist
