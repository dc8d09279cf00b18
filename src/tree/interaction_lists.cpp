#include "hfmm/tree/interaction_lists.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace hfmm::tree {

namespace {

constexpr std::int32_t cheb(const Offset& o) {
  return std::max({std::abs(o.dx), std::abs(o.dy), std::abs(o.dz)});
}

void check_separation(int d) {
  if (d < 1) throw std::invalid_argument("separation must be >= 1");
}

}  // namespace

std::vector<Offset> near_field_offsets(int separation) {
  check_separation(separation);
  std::vector<Offset> out;
  out.reserve(static_cast<std::size_t>(2 * separation + 1) *
              (2 * separation + 1) * (2 * separation + 1));
  for (std::int32_t dz = -separation; dz <= separation; ++dz)
    for (std::int32_t dy = -separation; dy <= separation; ++dy)
      for (std::int32_t dx = -separation; dx <= separation; ++dx)
        out.push_back({dx, dy, dz});
  return out;
}

std::vector<Offset> near_field_half_offsets(int separation) {
  std::vector<Offset> out;
  for (const Offset& o : near_field_offsets(separation)) {
    // z-major positive half, (dz, dy, dx) > (0, 0, 0): negation maps it onto
    // the other half, so H and -H partition the non-self neighbors. Every
    // partner lies ahead of its box in flat (z, y, x) order, and each
    // (dy, dz) keeps a whole dx interval — one x-row per (dy, dz).
    if (o.dz > 0 || (o.dz == 0 && (o.dy > 0 || (o.dy == 0 && o.dx > 0))))
      out.push_back(o);
  }
  return out;
}

std::vector<Offset> interactive_offsets(int octant, int separation) {
  check_separation(separation);
  if (octant < 0 || octant > 7)
    throw std::invalid_argument("octant must be in [0, 8)");
  const std::int32_t px = octant & 1, py = (octant >> 1) & 1,
                     pz = (octant >> 2) & 1;
  std::vector<Offset> out;
  // Children b of every parent D in the parent's near field; the child-level
  // offset from this child is 2D + b - p per axis.
  for (std::int32_t Dz = -separation; Dz <= separation; ++Dz)
    for (std::int32_t Dy = -separation; Dy <= separation; ++Dy)
      for (std::int32_t Dx = -separation; Dx <= separation; ++Dx)
        for (std::int32_t bz = 0; bz <= 1; ++bz)
          for (std::int32_t by = 0; by <= 1; ++by)
            for (std::int32_t bx = 0; bx <= 1; ++bx) {
              const Offset o{2 * Dx + bx - px, 2 * Dy + by - py,
                             2 * Dz + bz - pz};
              if (cheb(o) > separation) out.push_back(o);
            }
  return out;
}

std::vector<Offset> sibling_union_offsets(int separation) {
  check_separation(separation);
  std::vector<Offset> out;
  const std::int32_t r = 2 * separation + 1;
  for (std::int32_t dz = -r; dz <= r; ++dz)
    for (std::int32_t dy = -r; dy <= r; ++dy)
      for (std::int32_t dx = -r; dx <= r; ++dx) {
        const Offset o{dx, dy, dz};
        if (cheb(o) > separation) out.push_back(o);
      }
  return out;
}

std::size_t offset_cube_index(const Offset& o, int separation) {
  const std::int32_t r = 2 * separation + 1;
  const std::size_t n = 2 * r + 1;
  return (static_cast<std::size_t>(o.dz + r) * n + (o.dy + r)) * n + (o.dx + r);
}

std::size_t offset_cube_size(int separation) {
  const std::size_t n = 4 * separation + 3;
  return n * n * n;
}

std::vector<SupernodeEntry> supernode_interactive(int octant, int separation) {
  check_separation(separation);
  if (octant < 0 || octant > 7)
    throw std::invalid_argument("octant must be in [0, 8)");
  const std::int32_t px = octant & 1, py = (octant >> 1) & 1,
                     pz = (octant >> 2) & 1;
  std::vector<SupernodeEntry> out;
  for (std::int32_t Dz = -separation; Dz <= separation; ++Dz)
    for (std::int32_t Dy = -separation; Dy <= separation; ++Dy)
      for (std::int32_t Dx = -separation; Dx <= separation; ++Dx) {
        if (Dx == 0 && Dy == 0 && Dz == 0) continue;  // own octet: all near
        // Children of parent offset D; the octet is "complete" when none of
        // its 8 children fall in the target child's near field.
        std::vector<Offset> children;
        bool complete = true;
        for (std::int32_t bz = 0; bz <= 1; ++bz)
          for (std::int32_t by = 0; by <= 1; ++by)
            for (std::int32_t bx = 0; bx <= 1; ++bx) {
              const Offset o{2 * Dx + bx - px, 2 * Dy + by - py,
                             2 * Dz + bz - pz};
              if (cheb(o) <= separation)
                complete = false;
              else
                children.push_back(o);
            }
        if (complete) {
          // One parent-level translation replaces 8 child ones. Its offset is
          // measured from the target child's centre in PARENT box units:
          // parent centre sits at D relative to the target's parent, and the
          // target child is displaced by (p - 1/2)/2 parent units — the
          // translation-matrix builder reconstructs the geometry from
          // (offset, source_level_up, octant), so we store D here.
          out.push_back({{Dx, Dy, Dz}, 1});
        } else {
          for (const Offset& o : children) out.push_back({o, 0});
        }
      }
  return out;
}

}  // namespace hfmm::tree
