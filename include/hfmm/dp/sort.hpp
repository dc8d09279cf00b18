#pragma once
// The coordinate sort (paper Section 3.2, Figure 5) and the boxed particle
// representation it produces.
//
// Input particles arrive as 1-D attribute arrays. The FMM needs them grouped
// by leaf box AND aligned so that, when the sorted 1-D arrays are block-
// partitioned over the VUs, each particle already resides on the VU that
// owns its leaf box. The coordinate sort achieves both by sorting on keys
// built from the box coordinates' VU-address bits (concatenated z|y|x) above
// their local-address bits (z|y|x).

#include <cstdint>
#include <vector>

#include "hfmm/dp/layout.hpp"
#include "hfmm/util/particles.hpp"

namespace hfmm::dp {

/// Particles grouped by leaf box (CSR over boxes in coordinate-sort key
/// order), the 4-D particle-array analogue of Section 3.1.
struct BoxedParticles {
  ParticleSet sorted;                     ///< particles in key order
  std::vector<std::uint32_t> perm;        ///< sorted index -> original index
  std::vector<std::uint32_t> box_of;      ///< leaf flat index per particle
  std::vector<std::uint32_t> box_begin;   ///< CSR offsets, size = #boxes + 1,
                                          ///< indexed by coordinate-sort rank
  std::vector<std::uint32_t> rank_to_flat;  ///< sort rank -> leaf flat index
  std::vector<std::uint32_t> flat_to_rank;  ///< leaf flat index -> sort rank

  std::uint32_t count_in_rank(std::size_t rank) const {
    return box_begin[rank + 1] - box_begin[rank];
  }
};

/// Sorts `particles` with the coordinate sort for `layout` over `hier`'s
/// leaf level. Stable counting sort on the composite key; O(N + boxes).
BoxedParticles coordinate_sort(const ParticleSet& particles,
                               const tree::Hierarchy& hier,
                               const BlockLayout& layout);

/// Reusable temporaries of the counting sort (key arrays and cursors); pass
/// the same instance across calls to keep repeated sorts allocation-free.
struct SortScratch {
  std::vector<std::uint32_t> rank_of, flat_of, cursor;
};

/// In-place variant: writes into `out`, reusing its buffers (and
/// `scratch`'s, when given) so an integrator's step loop pays the sort
/// allocations once. Produces exactly the same result as the returning form.
void coordinate_sort(const ParticleSet& particles, const tree::Hierarchy& hier,
                     const BlockLayout& layout, BoxedParticles& out,
                     SortScratch* scratch = nullptr);

/// Writes the non-empty leaf boxes of `boxed` (flat indices, in sort-rank
/// order) to `out`, reusing its capacity.
void occupied_leaves(const BoxedParticles& boxed,
                     std::vector<std::uint32_t>& out);

/// A plain Morton-order grouping (no VU/local bit split) — the "naive sort"
/// baseline for the Figure 5 locality experiment.
BoxedParticles morton_sort(const ParticleSet& particles,
                           const tree::Hierarchy& hier);

struct SortLocality {
  double home_fraction = 0.0;     ///< particles landing on their box's VU
  std::uint64_t off_vu_bytes = 0; ///< reshaping traffic for the misplaced rest
};

/// Evaluates the reshaping locality of a sorted order: block-partition the
/// sorted 1-D arrays over the VUs and check each particle against the home
/// VU of its leaf box (Section 3.2's claim: with >= 1 box per VU the
/// coordinate sort needs NO reshaping communication).
SortLocality measure_locality(const BoxedParticles& boxed,
                              const tree::Hierarchy& hier,
                              const BlockLayout& layout);

/// Segmented inclusive +-scan: out[i] = sum of in[j] for j in the same
/// segment with j <= i. Segments given by CSR offsets. The data-parallel
/// P2M formulation of Section 3.2 reduces to per-VU segmented scans; exposed
/// for tests and the sort bench.
void segmented_scan_add(std::span<const double> in,
                        std::span<const std::uint32_t> offsets,
                        std::span<double> out);

}  // namespace hfmm::dp
