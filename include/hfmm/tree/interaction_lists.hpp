#pragma once
// Near fields, interactive fields, and supernode lists (paper Sections 2.1,
// 2.3 and 3.3.2).
//
// With d-separation, the near field of a box is the (2d+1)^3 block of boxes
// within Chebyshev distance d (including itself). The interactive field of a
// child box is the part of its parent's near field (refined to child level)
// outside the child's own near field: 7(2d+1)^3 boxes for interior boxes —
// 875 for d = 2, 189 for d = 1.
//
// The offsets depend only on the child's octant parity: for octant component
// bit p (0 or 1) along an axis, interactive offsets span [-2d-d' + p, 2d+d'-1 + p]
// \ [-d, d] where the parent near field [-d..d] at parent scale maps to
// [-2d-p .. 2d+1-p]... — rather than reasoning in prose, generate_interactive_offsets
// constructs the set directly from the definition and is validated by tests
// against the paper's counts (875/189) and its stated union size (1206 for
// d = 2, offsets in [-5,5]^3 \ [-2,2]^3).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hfmm/tree/hierarchy.hpp"

namespace hfmm::tree {

/// A relative box offset at one level.
struct Offset {
  std::int32_t dx = 0;
  std::int32_t dy = 0;
  std::int32_t dz = 0;

  friend constexpr bool operator==(const Offset&, const Offset&) = default;
  friend constexpr auto operator<=>(const Offset&, const Offset&) = default;
};

/// All offsets with max(|dx|,|dy|,|dz|) <= d — the near field, (2d+1)^3
/// entries including (0,0,0).
std::vector<Offset> near_field_offsets(int separation);

/// Calls f(nb) for each neighbour nb = c + o of box c, o in `offsets` except
/// (0, 0, 0), at a level with n boxes per side: wrapped modulo n when
/// `periodic` (offsets must not exceed n in magnitude), otherwise skipped
/// when outside [0, n)^3.
template <class F>
void for_each_neighbour(const BoxCoord& c, std::int32_t n,
                        std::span<const Offset> offsets, bool periodic, F&& f) {
  for (const Offset& o : offsets) {
    if (o == Offset{0, 0, 0}) continue;
    BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
    if (periodic) {
      nb = {(nb.ix + n) % n, (nb.iy + n) % n, (nb.iz + n) % n};
    } else if (nb.ix < 0 || nb.ix >= n || nb.iy < 0 || nb.iy >= n ||
               nb.iz < 0 || nb.iz >= n) {
      continue;
    }
    f(nb);
  }
}

/// Near-field offsets excluding self, split into a half-list H such that
/// H and -H partition the 124 (d=2) neighbors: used by the Newton-3rd-law
/// symmetric near-field evaluation (paper Section 3.4, Figure 10). H is the
/// z-major positive half, (dz, dy, dx) > (0, 0, 0), in z-major order: at
/// d = 2 its 62 offsets form 13 x-rows, 12 of them full 5-box rows.
std::vector<Offset> near_field_half_offsets(int separation);

/// Interactive-field offsets for a child in octant `octant` (0..7), at the
/// child's level, for the given separation d. From the definition: boxes
/// inside the parent's d-separation near field (refined to child level) and
/// outside the child's own d-separation near field.
std::vector<Offset> interactive_offsets(int octant, int separation);

/// The union of the 8 siblings' interactive fields (1206 offsets for d = 2,
/// spanning [-5,5]^3 \ [-2,2]^3). Table lookups for T2 matrices index into
/// the full [-2d-1, 2d+1]^3 cube of (4d+3)^3 = 1331 offsets (d=2), exactly
/// as the paper stores 1331 matrices for ease of indexing.
std::vector<Offset> sibling_union_offsets(int separation);

/// Dense index of an offset into the (4d+3)^3 cube used for T2 matrix lookup:
/// each component shifted by 2d+1, x-fastest.
std::size_t offset_cube_index(const Offset& o, int separation);
std::size_t offset_cube_size(int separation);

/// One entry of a supernode interaction list: either a same-level source box
/// (plain T2) or a parent-level source standing in for a complete 2x2x2
/// sibling octet (supernode T2 from the parent's outer sphere).
struct SupernodeEntry {
  Offset offset;        ///< in source-level box units, relative to the target
  int source_level_up;  ///< 0 = same level as target, 1 = parent level
};

/// Supernode interaction list for a child in `octant` with separation d = 2:
/// complete sibling octets whose parent is (at parent scale) far enough to be
/// accurate are replaced by their parent, reducing the entry count from 875
/// toward the paper's effective 189 (Section 2.3).
std::vector<SupernodeEntry> supernode_interactive(int octant, int separation);

}  // namespace hfmm::tree
