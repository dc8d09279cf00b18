#include "hfmm/d2/tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hfmm::d2 {

namespace {

constexpr std::int32_t cheb(const Offset2& o) {
  return std::max(std::abs(o.dx), std::abs(o.dy));
}

void check_separation(int d) {
  if (d < 1) throw std::invalid_argument("separation must be >= 1");
}

void check_quadrant(int q) {
  if (q < 0 || q > 3) throw std::invalid_argument("quadrant must be in [0,4)");
}

}  // namespace

Quadtree::Quadtree(const Point2& lo, double side, int depth)
    : lo_(lo), side_(side), depth_(depth) {
  if (depth < 0) throw std::invalid_argument("Quadtree: depth must be >= 0");
  if (!(side > 0.0)) throw std::invalid_argument("Quadtree: side must be > 0");
}

std::size_t Quadtree::flat_index(int level, const BoxCoord2& c) const {
  assert(in_bounds(level, c));
  return static_cast<std::size_t>(c.iy) * boxes_per_side(level) + c.ix;
}

BoxCoord2 Quadtree::coord_of(int level, std::size_t flat) const {
  const std::size_t n = boxes_per_side(level);
  return {static_cast<std::int32_t>(flat % n),
          static_cast<std::int32_t>(flat / n)};
}

Point2 Quadtree::center(int level, const BoxCoord2& c) const {
  const double s = side_at(level);
  return {lo_.x + (c.ix + 0.5) * s, lo_.y + (c.iy + 0.5) * s};
}

BoxCoord2 Quadtree::leaf_of(const Point2& p) const {
  const double s = side_at(depth_);
  const std::int32_t n = boxes_per_side(depth_);
  const auto clamp_axis = [&](double v, double lo) {
    const auto i = static_cast<std::int32_t>(std::floor((v - lo) / s));
    return std::clamp(i, 0, n - 1);
  };
  return {clamp_axis(p.x, lo_.x), clamp_axis(p.y, lo_.y)};
}

bool Quadtree::in_bounds(int level, const BoxCoord2& c) const {
  const std::int32_t n = boxes_per_side(level);
  return c.ix >= 0 && c.ix < n && c.iy >= 0 && c.iy < n;
}

std::vector<Offset2> near_offsets2(int separation) {
  check_separation(separation);
  std::vector<Offset2> out;
  for (std::int32_t dy = -separation; dy <= separation; ++dy)
    for (std::int32_t dx = -separation; dx <= separation; ++dx)
      out.push_back({dx, dy});
  return out;
}

std::vector<Offset2> near_half_offsets2(int separation) {
  std::vector<Offset2> out;
  for (const Offset2& o : near_offsets2(separation))
    if (o > Offset2{0, 0}) out.push_back(o);
  return out;
}

std::vector<Offset2> interactive_offsets2(int quadrant, int separation) {
  check_separation(separation);
  check_quadrant(quadrant);
  const std::int32_t px = quadrant & 1, py = (quadrant >> 1) & 1;
  std::vector<Offset2> out;
  for (std::int32_t Dy = -separation; Dy <= separation; ++Dy)
    for (std::int32_t Dx = -separation; Dx <= separation; ++Dx)
      for (std::int32_t by = 0; by <= 1; ++by)
        for (std::int32_t bx = 0; bx <= 1; ++bx) {
          const Offset2 o{2 * Dx + bx - px, 2 * Dy + by - py};
          if (cheb(o) > separation) out.push_back(o);
        }
  return out;
}

std::vector<Offset2> sibling_union_offsets2(int separation) {
  check_separation(separation);
  const std::int32_t r = 2 * separation + 1;
  std::vector<Offset2> out;
  for (std::int32_t dy = -r; dy <= r; ++dy)
    for (std::int32_t dx = -r; dx <= r; ++dx) {
      const Offset2 o{dx, dy};
      if (cheb(o) > separation) out.push_back(o);
    }
  return out;
}

std::size_t offset_square_index(const Offset2& o, int separation) {
  const std::int32_t r = 2 * separation + 1;
  const std::size_t n = 2 * r + 1;
  return static_cast<std::size_t>(o.dy + r) * n + (o.dx + r);
}

std::size_t offset_square_size(int separation) {
  const std::size_t n = 4 * separation + 3;
  return n * n;
}

std::vector<SupernodeEntry2> supernode_interactive2(int quadrant,
                                                    int separation) {
  check_separation(separation);
  check_quadrant(quadrant);
  const std::int32_t px = quadrant & 1, py = (quadrant >> 1) & 1;
  std::vector<SupernodeEntry2> out;
  for (std::int32_t Dy = -separation; Dy <= separation; ++Dy)
    for (std::int32_t Dx = -separation; Dx <= separation; ++Dx) {
      if (Dx == 0 && Dy == 0) continue;
      std::vector<Offset2> children;
      bool complete = true;
      for (std::int32_t by = 0; by <= 1; ++by)
        for (std::int32_t bx = 0; bx <= 1; ++bx) {
          const Offset2 o{2 * Dx + bx - px, 2 * Dy + by - py};
          if (cheb(o) <= separation)
            complete = false;
          else
            children.push_back(o);
        }
      if (complete) {
        out.push_back({{Dx, Dy}, 1});
      } else {
        for (const Offset2& o : children) out.push_back({o, 0});
      }
    }
  return out;
}

int optimal_depth2(std::size_t n_particles, double particles_per_leaf) {
  if (!(particles_per_leaf > 0.0))
    throw std::invalid_argument("optimal_depth2: occupancy must be positive");
  int h = 0;
  while (h < kMaxDepth2 &&
         static_cast<double>(n_particles) /
                 static_cast<double>(std::size_t{1} << (2 * (h + 1))) >=
             particles_per_leaf)
    ++h;
  return h;
}

}  // namespace hfmm::d2
