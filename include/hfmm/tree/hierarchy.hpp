#pragma once
// The uniform hierarchy of boxes (paper Section 2.1, Figure 1).
//
// Level 0 is the whole cubic domain; level l+1 subdivides each level-l box
// into 8 children; the leaf level is h. A box is addressed by
// (level, ix, iy, iz) with 0 <= i* < 2^level, or by a flat index within its
// level in x-fastest order — the same order used to embed each level in the
// distributed potential arrays (Section 3.1, Figure 3).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hfmm/util/particles.hpp"
#include "hfmm/util/vec3.hpp"

namespace hfmm::tree {

/// Integer coordinates of a box at some level.
struct BoxCoord {
  std::int32_t ix = 0;
  std::int32_t iy = 0;
  std::int32_t iz = 0;

  friend constexpr bool operator==(const BoxCoord&, const BoxCoord&) = default;
};

/// Geometry of one hierarchy: the root cube plus the depth.
class Hierarchy {
 public:
  /// `root` must be a cube (use cube_containing() otherwise); depth >= 0.
  Hierarchy(const Box3& root, int depth);

  int depth() const { return depth_; }
  const Box3& root() const { return root_; }

  /// Number of boxes along each axis at `level`: 2^level.
  std::int32_t boxes_per_side(int level) const { return 1 << level; }
  /// Total boxes at `level`: 8^level.
  std::size_t boxes_at(int level) const {
    return static_cast<std::size_t>(1) << (3 * level);
  }
  /// Side length of a box at `level`.
  double side_at(int level) const { return side_ / boxes_per_side(level); }

  /// Flat index of a box within its level, x-fastest:
  /// index = (iz * 2^l + iy) * 2^l + ix.
  std::size_t flat_index(int level, const BoxCoord& c) const;
  BoxCoord coord_of(int level, std::size_t flat) const;

  /// Center of box (level, c).
  Vec3 center(int level, const BoxCoord& c) const;

  /// Leaf box containing point p (clamped to the domain).
  BoxCoord leaf_of(const Vec3& p) const;

  /// Parent coordinates of a box at `level` (level >= 1).
  static constexpr BoxCoord parent_of(const BoxCoord& c) {
    return {c.ix >> 1, c.iy >> 1, c.iz >> 1};
  }
  /// Child octant index in [0, 8): bit 0 = x, bit 1 = y, bit 2 = z.
  static constexpr int octant_of(const BoxCoord& c) {
    return (c.ix & 1) | ((c.iy & 1) << 1) | ((c.iz & 1) << 2);
  }
  /// Child coordinates for octant `o` of parent `p`.
  static constexpr BoxCoord child_of(const BoxCoord& p, int o) {
    return {2 * p.ix + (o & 1), 2 * p.iy + ((o >> 1) & 1),
            2 * p.iz + ((o >> 2) & 1)};
  }
  /// Displacement (in child-box side lengths) from parent center to the
  /// center of child octant `o`: components are +-1/2.
  static Vec3 octant_offset(int o) {
    return {(o & 1) ? 0.5 : -0.5, (o & 2) ? 0.5 : -0.5, (o & 4) ? 0.5 : -0.5};
  }

  bool in_bounds(int level, const BoxCoord& c) const;

 private:
  Box3 root_;
  double side_;
  int depth_;
};

/// Smallest cube containing `b`, centred on b's centre, padded by `pad`
/// relative side fraction so boundary particles land strictly inside. The
/// half-side is at least 2^-20 max(1, |centre|_inf), so a zero-extent `b`
/// still yields a cube of positive side.
Box3 cube_containing(const Box3& b, double pad = 1e-6);

/// Deepest hierarchy the solver builds. The active sets and the sort keep
/// flat arrays of 8^h entries per level, so depth 8 already takes ~280 MB
/// whatever N is, and depths 9 and 10 would take ~2.2 and ~18 GB. The
/// automatic rule would reach depth 9 only above ~1.07e9 particles.
inline constexpr int kMaxDepth = 8;

/// The paper's optimal-depth rule (Section 2.3): pick h so the number of
/// leaf boxes 8^h is proportional to N, balancing hierarchy traversal
/// against near-field direct evaluation. `particles_per_leaf` is the target
/// average occupancy (the constant c in M = cN); the result is at most
/// kMaxDepth.
int optimal_depth(std::size_t n_particles, double particles_per_leaf);

}  // namespace hfmm::tree
