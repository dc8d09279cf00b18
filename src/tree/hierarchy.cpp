#include "hfmm/tree/hierarchy.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hfmm::tree {

Hierarchy::Hierarchy(const Box3& root, int depth) : root_(root), depth_(depth) {
  if (depth < 0) throw std::invalid_argument("Hierarchy: depth must be >= 0");
  const Vec3 e = root.extent();
  side_ = e.x;
  constexpr double kTol = 1e-9;
  if (std::abs(e.y - side_) > kTol * side_ ||
      std::abs(e.z - side_) > kTol * side_)
    throw std::invalid_argument("Hierarchy: root box must be a cube");
}

std::size_t Hierarchy::flat_index(int level, const BoxCoord& c) const {
  assert(in_bounds(level, c));
  const std::size_t n = boxes_per_side(level);
  return (static_cast<std::size_t>(c.iz) * n + c.iy) * n + c.ix;
}

BoxCoord Hierarchy::coord_of(int level, std::size_t flat) const {
  const std::size_t n = boxes_per_side(level);
  return {static_cast<std::int32_t>(flat % n),
          static_cast<std::int32_t>((flat / n) % n),
          static_cast<std::int32_t>(flat / (n * n))};
}

Vec3 Hierarchy::center(int level, const BoxCoord& c) const {
  const double s = side_at(level);
  return root_.lo + Vec3{(c.ix + 0.5) * s, (c.iy + 0.5) * s, (c.iz + 0.5) * s};
}

BoxCoord Hierarchy::leaf_of(const Vec3& p) const {
  const double s = side_at(depth_);
  const std::int32_t n = boxes_per_side(depth_);
  const auto clamp_axis = [&](double v, double lo) {
    const auto i = static_cast<std::int32_t>(std::floor((v - lo) / s));
    return std::clamp(i, 0, n - 1);
  };
  return {clamp_axis(p.x, root_.lo.x), clamp_axis(p.y, root_.lo.y),
          clamp_axis(p.z, root_.lo.z)};
}

bool Hierarchy::in_bounds(int level, const BoxCoord& c) const {
  const std::int32_t n = boxes_per_side(level);
  return c.ix >= 0 && c.ix < n && c.iy >= 0 && c.iy < n && c.iz >= 0 &&
         c.iz < n;
}

Box3 cube_containing(const Box3& b, double pad) {
  const Vec3 c = b.center();
  // A zero-extent box (one particle, or all coincident) would give a
  // zero-side cube, and Hierarchy::leaf_of would divide 0 by 0. Floor the
  // half-side at 2^-20 of the centre's magnitude (at least 2^-20), far above
  // the rounding of a coordinate there.
  const double scale =
      std::max({1.0, std::abs(c.x), std::abs(c.y), std::abs(c.z)});
  const double half =
      std::max(0.5 * b.max_side() * (1.0 + pad), std::ldexp(scale, -20));
  return {c - Vec3{half, half, half}, c + Vec3{half, half, half}};
}

int optimal_depth(std::size_t n_particles, double particles_per_leaf) {
  if (!(particles_per_leaf > 0.0))
    throw std::invalid_argument("optimal_depth: occupancy must be positive");
  int h = 0;
  // Deepest level whose average occupancy is still >= the target.
  while (h < kMaxDepth &&
         static_cast<double>(n_particles) /
                 static_cast<double>(std::size_t{1} << (3 * (h + 1))) >=
             particles_per_leaf)
    ++h;
  return h;
}

}  // namespace hfmm::tree
