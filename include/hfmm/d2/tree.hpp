#pragma once
// Quadtree hierarchy and 2-D interaction lists (paper Figure 1 is drawn in
// two dimensions; these are its exact counts).
//
// With d-separation: near field (2d+1)^2 boxes; interactive field
// 3(2d+1)^2 per child (75 for d = 2, 27 for d = 1); sibling union
// (4d+3)^2 - (2d+1)^2 offsets; and the supernode decomposition reduces 75
// effective translations to 27 — the same 8x-to-~4x family of identities as
// in 3-D, verified by the tests.

#include <cstdint>
#include <vector>

#include "hfmm/d2/kernels.hpp"

namespace hfmm::d2 {

struct BoxCoord2 {
  std::int32_t ix = 0;
  std::int32_t iy = 0;

  friend constexpr bool operator==(const BoxCoord2&, const BoxCoord2&) =
      default;
};

struct Offset2 {
  std::int32_t dx = 0;
  std::int32_t dy = 0;

  friend constexpr bool operator==(const Offset2&, const Offset2&) = default;
  friend constexpr auto operator<=>(const Offset2&, const Offset2&) = default;
};

/// Square domain [lo, lo+side]^2 refined to `depth` levels of 4-way splits.
class Quadtree {
 public:
  Quadtree(const Point2& lo, double side, int depth);

  int depth() const { return depth_; }
  double side() const { return side_; }
  const Point2& lo() const { return lo_; }

  std::int32_t boxes_per_side(int level) const { return 1 << level; }
  std::size_t boxes_at(int level) const {
    return static_cast<std::size_t>(1) << (2 * level);
  }
  double side_at(int level) const { return side_ / boxes_per_side(level); }

  std::size_t flat_index(int level, const BoxCoord2& c) const;
  BoxCoord2 coord_of(int level, std::size_t flat) const;
  Point2 center(int level, const BoxCoord2& c) const;
  BoxCoord2 leaf_of(const Point2& p) const;
  bool in_bounds(int level, const BoxCoord2& c) const;

  static constexpr BoxCoord2 parent_of(const BoxCoord2& c) {
    return {c.ix >> 1, c.iy >> 1};
  }
  /// Quadrant index in [0, 4): bit 0 = x, bit 1 = y.
  static constexpr int quadrant_of(const BoxCoord2& c) {
    return (c.ix & 1) | ((c.iy & 1) << 1);
  }
  static constexpr BoxCoord2 child_of(const BoxCoord2& p, int q) {
    return {2 * p.ix + (q & 1), 2 * p.iy + ((q >> 1) & 1)};
  }
  /// Child-centre displacement from the parent centre in child-side units.
  static Point2 quadrant_offset(int q) {
    return {(q & 1) ? 0.5 : -0.5, (q & 2) ? 0.5 : -0.5};
  }

 private:
  Point2 lo_;
  double side_;
  int depth_;
};

std::vector<Offset2> near_offsets2(int separation);
std::vector<Offset2> near_half_offsets2(int separation);
std::vector<Offset2> interactive_offsets2(int quadrant, int separation);
std::vector<Offset2> sibling_union_offsets2(int separation);
std::size_t offset_square_index(const Offset2& o, int separation);
std::size_t offset_square_size(int separation);

struct SupernodeEntry2 {
  Offset2 offset;
  int source_level_up = 0;  ///< 0 = same level, 1 = parent level
};

/// Supernode interaction list (complete sibling quads replaced by their
/// parent): 16 parents + 11 children = 27 entries for d = 2.
std::vector<SupernodeEntry2> supernode_interactive2(int quadrant,
                                                    int separation);

/// Deepest 2-D hierarchy: the 4^h leaf flat indices must fit the uint32
/// leaf CSR (`box_begin`) and sort keys, as 8^kMaxDepth does in 3-D.
inline constexpr int kMaxDepth2 = 15;

/// The 2-D occupancy-based depth rule; the result is at most kMaxDepth2.
int optimal_depth2(std::size_t n_particles, double particles_per_leaf);

}  // namespace hfmm::d2
