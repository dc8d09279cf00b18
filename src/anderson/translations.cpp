#include "hfmm/anderson/translations.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/tree/hierarchy.hpp"

namespace hfmm::anderson {

namespace {

TranslationMatrix build(const Params& params, const TranslationGeometry& g) {
  TranslationMatrix t;
  t.k = params.k();
  t.m.resize(t.k * t.k);
  build_translation_into(params, g, /*transposed=*/false, t.m);
  return t;
}

Vec3 to_vec3(const tree::Offset& o) {
  return {static_cast<double>(o.dx), static_cast<double>(o.dy),
          static_cast<double>(o.dz)};
}

}  // namespace

TranslationMatrix build_outer_to_points(const Params& params, double a_src,
                                        double a_dst,
                                        const Vec3& dst_center_minus_src) {
  return build(params, {true, a_src, a_dst, dst_center_minus_src});
}

// Child outer (radius a_child_out, centred at the octant offset from the
// parent centre) -> parent outer points (radius 2 a_child_out at origin).
TranslationGeometry t1_geometry(const Params& params, int octant) {
  const Vec3 child = tree::Hierarchy::octant_offset(octant);
  return {true, params.outer_ratio, 2.0 * params.outer_ratio,
          /*parent - child=*/-child};
}

// Parent inner (origin) -> child inner points (octant offset).
TranslationGeometry t3_geometry(const Params& params, int octant) {
  const Vec3 child = tree::Hierarchy::octant_offset(octant);
  return {false, 2.0 * params.inner_ratio, params.inner_ratio,
          /*child - parent=*/child};
}

// Source outer at an integer offset -> target inner at the origin.
TranslationGeometry t2_geometry(const Params& params,
                                const tree::Offset& offset) {
  return {true, params.outer_ratio, params.inner_ratio,
          /*target - source=*/-to_vec3(offset)};
}

// Target child centre at the origin; its parent centre at -octant_offset
// (in child units); the source parent centre at parent_centre + 2 D.
TranslationGeometry supernode_geometry(const Params& params, int octant,
                                       const tree::Offset& parent_offset) {
  const Vec3 parent_centre = -tree::Hierarchy::octant_offset(octant);
  const Vec3 src = parent_centre + 2.0 * to_vec3(parent_offset);
  return {true, 2.0 * params.outer_ratio, params.inner_ratio,
          /*target - source=*/-src};
}

void build_translation_into(const Params& params, const TranslationGeometry& g,
                            bool transposed, std::span<double> out) {
  const auto& rule = params.rule;
  const std::size_t k = rule.size();
  const int m = params.truncation;
  if (out.size() != k * k)
    throw std::invalid_argument("build_translation_into: bad output size");
  // Entry (j, i) lands at out[j * k + i] in T and at out[i * k + j] in T^T.
  const std::size_t row_stride = transposed ? 1 : k;
  const std::size_t col_stride = transposed ? k : 1;
  // One row at a time: the destination point fixes x_rel, r and the ratio t,
  // and the series runs over all K source points together (n outer, i
  // inner). Each entry takes outer_kernel's / inner_kernel's arithmetic in
  // their order, so it equals w_i * kernel(s_i, x_rel) bit for bit.
  // The source points as coordinate arrays (unit-stride vector loads), then
  // the per-row series state.
  std::vector<double> scratch(7 * k);
  double* sx = scratch.data();
  double* sy = sx + k;
  double* sz = sy + k;
  double* u = sz + k;   // s_i . x_rel / r
  double* pm = u + k;   // P_{n-1}(u)
  double* pn = pm + k;  // P_n(u)
  double* sum = pn + k;
  for (std::size_t i = 0; i < k; ++i) {
    sx[i] = rule.points[i].x;
    sy[i] = rule.points[i].y;
    sz[i] = rule.points[i].z;
  }
  for (std::size_t j = 0; j < k; ++j) {
    const Vec3 x_rel = g.dst_minus_src + g.a_dst * rule.points[j];
    const double r = x_rel.norm();
    double* row = out.data() + j * row_stride;
    if (!g.src_is_outer && r < kInnerOriginRadius) {  // inner_kernel is 1
      for (std::size_t i = 0; i < k; ++i) row[i * col_stride] = rule.weights[i];
      continue;
    }
    // tp = (a/r)^{n+1} (outer) or (r/a)^n (inner), starting at n = 0.
    const double t = g.src_is_outer ? g.a_src / r : r / g.a_src;
    double tp = g.src_is_outer ? t : 1.0;
#pragma omp simd
    for (std::size_t i = 0; i < k; ++i) {
      u[i] = (sx[i] * x_rel.x + sy[i] * x_rel.y + sz[i] * x_rel.z) / r;
      pn[i] = 1.0;
      sum[i] = 0.0;
    }
    for (int n = 0;; ++n) {
      const double c = (2 * n + 1) * tp;
#pragma omp simd
      for (std::size_t i = 0; i < k; ++i) sum[i] += c * pn[i];
      if (n == m) break;
      // (n+1) P_{n+1} = (2n+1) u P_n - n P_{n-1}, into P_{n-1}'s slot.
      if (n == 0) {
        std::copy(u, u + k, pm);
      } else {
#pragma omp simd
        for (std::size_t i = 0; i < k; ++i)
          pm[i] = ((2 * n + 1) * u[i] * pn[i] - n * pm[i]) / (n + 1);
      }
      std::swap(pm, pn);
      tp *= t;
    }
#pragma omp simd
    for (std::size_t i = 0; i < k; ++i)
      row[i * col_stride] = sum[i] * rule.weights[i];
  }
}

TranslationSet::TranslationSet(const Params& params, int separation,
                               bool with_supernodes)
    : params_(params), separation_(separation) {
  params_.validate();
  if (separation < 1)
    throw std::invalid_argument("TranslationSet: separation must be >= 1");

  t1_.reserve(8);
  t3_.reserve(8);
  for (int o = 0; o < 8; ++o) {
    t1_.push_back(build(params_, t1_geometry(params_, o)));
    t3_.push_back(build(params_, t3_geometry(params_, o)));
  }

  // T2: offsets covering the whole (4d+3)^3 cube.
  const std::size_t cube = tree::offset_cube_size(separation);
  t2_.resize(cube);
  const std::int32_t r = 2 * separation + 1;
  for (std::int32_t dz = -r; dz <= r; ++dz)
    for (std::int32_t dy = -r; dy <= r; ++dy)
      for (std::int32_t dx = -r; dx <= r; ++dx) {
        const tree::Offset off{dx, dy, dz};
        const std::size_t idx = tree::offset_cube_index(off, separation);
        if (dx == 0 && dy == 0 && dz == 0) {
          // Self-offset is never used; leave a zero matrix.
          t2_[idx].k = params_.k();
          t2_[idx].m.assign(params_.k() * params_.k(), 0.0);
          continue;
        }
        t2_[idx] = build(params_, t2_geometry(params_, off));
      }

  // Supernode T2: parent-level source outer sphere -> target child inner
  // (same-level entries use the plain T2 above).
  supernode_.resize(8);
  for (int o = 0; o < 8 && with_supernodes; ++o)
    for (const auto& entry : tree::supernode_interactive(o, separation))
      if (entry.source_level_up == 1)
        supernode_[o].push_back(
            build(params_, supernode_geometry(params_, o, entry.offset)));
}

std::size_t TranslationSet::resident_bytes() const {
  std::size_t bytes = 0;
  const auto add = [&](const TranslationMatrix& t) {
    bytes += t.m.size() * sizeof(double);
  };
  for (const auto& t : t1_) add(t);
  for (const auto& t : t3_) add(t);
  for (const auto& t : t2_) add(t);
  for (const auto& per_octant : supernode_)
    for (const auto& t : per_octant) add(t);
  return bytes;
}

void TranslationSet::build_t1_into(int octant, std::span<double> out) const {
  build_translation_into(params_, t1_geometry(params_, octant), false, out);
}

void TranslationSet::build_t2_into(std::size_t cube_index,
                                   std::span<double> out) const {
  const std::int32_t r = 2 * separation_ + 1;
  const std::int32_t n = 2 * r + 1;
  const auto idx = static_cast<std::int32_t>(cube_index);
  const tree::Offset off{idx % n - r, (idx / n) % n - r, idx / (n * n) - r};
  if (off.dx == 0 && off.dy == 0 && off.dz == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  build_translation_into(params_, t2_geometry(params_, off), false, out);
}

}  // namespace hfmm::anderson
