#include "hfmm/dp/sort.hpp"

#include <numeric>
#include <stdexcept>

#include "hfmm/util/morton.hpp"

namespace hfmm::dp {

namespace {

// Gathers each attribute (and the per-particle leaf flat) through the
// permutation.
void gather_sorted(const ParticleSet& particles, const SortScratch& scratch,
                   BoxedParticles& out) {
  const std::size_t n = particles.size();
  out.sorted.resize(n);
  out.box_of.resize(n);
  const std::span<const double> x = particles.x(), y = particles.y(),
                                z = particles.z(), q = particles.q();
  const std::span<double> sx = out.sorted.x(), sy = out.sorted.y(),
                          sz = out.sorted.z(), sq = out.sorted.q();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = out.perm[i];
    sx[i] = x[s];
    sy[i] = y[s];
    sz[i] = z[s];
    sq[i] = q[s];
    out.box_of[i] = scratch.flat_of[s];
  }
  if (particles.has_types()) {
    out.sorted.ensure_types();
    const std::span<const std::int32_t> t = particles.type();
    const std::span<std::int32_t> st = out.sorted.type();
    for (std::size_t i = 0; i < n; ++i) st[i] = t[out.perm[i]];
  }
}

// Shared grouping machinery: given a rank (position in the box enumeration
// order implied by the sort keys) per particle, produce the CSR structure
// via a stable counting sort. Writes into `out` reusing its buffers;
// `out.rank_to_flat` must already hold the rank -> flat map.
void group_by_rank(const ParticleSet& particles, SortScratch& scratch,
                   BoxedParticles& out) {
  const std::size_t n = particles.size();
  const std::size_t boxes = out.rank_to_flat.size();

  out.box_begin.assign(boxes + 1, 0);
  for (const std::uint32_t r : scratch.rank_of) out.box_begin[r + 1]++;
  for (std::size_t b = 0; b < boxes; ++b)
    out.box_begin[b + 1] += out.box_begin[b];

  out.perm.resize(n);
  scratch.cursor.assign(out.box_begin.begin(), out.box_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    out.perm[scratch.cursor[scratch.rank_of[i]]++] =
        static_cast<std::uint32_t>(i);

  gather_sorted(particles, scratch, out);

  out.flat_to_rank.resize(boxes);
  for (std::size_t r = 0; r < boxes; ++r)
    out.flat_to_rank[out.rank_to_flat[r]] = static_cast<std::uint32_t>(r);
}

}  // namespace

void coordinate_sort(const ParticleSet& particles, const tree::Hierarchy& hier,
                     const BlockLayout& layout, BoxedParticles& out,
                     SortScratch* scratch) {
  if (layout.boxes_per_side() != hier.boxes_per_side(hier.depth()))
    throw std::invalid_argument("coordinate_sort: layout/hierarchy mismatch");
  const std::size_t n = particles.size();
  const std::size_t boxes = layout.total_boxes();

  SortScratch local;
  SortScratch& scr = scratch != nullptr ? *scratch : local;

  // The coordinate-sort key of a box IS its enumeration rank: VU-address
  // bits above local-address bits yields a dense [0, boxes) integer.
  scr.rank_of.resize(n);
  scr.flat_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const tree::BoxCoord c = hier.leaf_of(particles.position(i));
    scr.rank_of[i] = static_cast<std::uint32_t>(layout.sort_key(c));
    scr.flat_of[i] =
        static_cast<std::uint32_t>(hier.flat_index(hier.depth(), c));
  }
  out.rank_to_flat.resize(boxes);
  for (std::size_t f = 0; f < boxes; ++f) {
    const tree::BoxCoord c = hier.coord_of(hier.depth(), f);
    out.rank_to_flat[layout.sort_key(c)] = static_cast<std::uint32_t>(f);
  }
  group_by_rank(particles, scr, out);
}

BoxedParticles coordinate_sort(const ParticleSet& particles,
                               const tree::Hierarchy& hier,
                               const BlockLayout& layout) {
  BoxedParticles out;
  coordinate_sort(particles, hier, layout, out);
  return out;
}

void occupied_leaves(const BoxedParticles& boxed,
                     std::vector<std::uint32_t>& out) {
  out.clear();
  for (std::size_t r = 0; r + 1 < boxed.box_begin.size(); ++r)
    if (boxed.count_in_rank(r) > 0) out.push_back(boxed.rank_to_flat[r]);
}

BoxedParticles morton_sort(const ParticleSet& particles,
                           const tree::Hierarchy& hier) {
  const std::size_t n = particles.size();
  const int depth = hier.depth();
  const std::size_t boxes = hier.boxes_at(depth);

  SortScratch scratch;
  scratch.rank_of.resize(n);
  scratch.flat_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const tree::BoxCoord c = hier.leaf_of(particles.position(i));
    scratch.rank_of[i] =
        static_cast<std::uint32_t>(morton_encode(c.ix, c.iy, c.iz));
    scratch.flat_of[i] = static_cast<std::uint32_t>(hier.flat_index(depth, c));
  }
  BoxedParticles out;
  out.rank_to_flat.resize(boxes);
  for (std::size_t f = 0; f < boxes; ++f) {
    const tree::BoxCoord c = hier.coord_of(depth, f);
    out.rank_to_flat[morton_encode(c.ix, c.iy, c.iz)] =
        static_cast<std::uint32_t>(f);
  }
  group_by_rank(particles, scratch, out);
  return out;
}

SortLocality measure_locality(const BoxedParticles& boxed,
                              const tree::Hierarchy& hier,
                              const BlockLayout& layout) {
  const std::size_t n = boxed.sorted.size();
  SortLocality loc;
  if (n == 0) return loc;
  const std::size_t p = layout.machine().total_vus();
  std::size_t home = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Block partition of the sorted 1-D arrays over the VUs.
    const std::size_t vu_1d = i * p / n;
    const tree::BoxCoord c = hier.coord_of(hier.depth(), boxed.box_of[i]);
    if (layout.home_of(c).vu == vu_1d)
      ++home;
    else
      loc.off_vu_bytes += 4 * sizeof(double);  // x, y, z, q move off-VU
  }
  loc.home_fraction = static_cast<double>(home) / static_cast<double>(n);
  return loc;
}

void segmented_scan_add(std::span<const double> in,
                        std::span<const std::uint32_t> offsets,
                        std::span<double> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("segmented_scan_add: size mismatch");
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    double acc = 0.0;
    for (std::uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      acc += in[i];
      out[i] = acc;
    }
  }
}

}  // namespace hfmm::dp
