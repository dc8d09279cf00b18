#pragma once
// Active-set translation chunk bodies shared by the sparse executor
// (solver_sparse.cpp) and the distributed executor (solver_dist.cpp, over
// each rank's pruned level sets). Every stage iterates ACTIVE indices of the
// supplied level sets and applies the same fixed offset order as the dense
// path, so results stay bitwise-reproducible regardless of scheduling.

#include <cstdint>

#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "solver_internal.hpp"

namespace hfmm::core::internal {

struct ActiveContext {
  const FmmConfig& config;
  const FmmPlan& plan;
  const tree::Hierarchy& hier;
  SolveWorkspace& ws;
  const tree::ActiveLevels& act;

  const TranslationData& trans() const { return *plan.trans; }
};

inline std::uint64_t particles_in(const dp::BoxedParticles& boxed,
                                  std::size_t flat) {
  const std::uint32_t r = boxed.flat_to_rank[flat];
  return boxed.box_begin[r + 1] - boxed.box_begin[r];
}

// P2M over active leaves [lo, hi): every active leaf is non-empty by
// construction, writing its outer approximation at its ACTIVE row. Shared
// by the sparse and distributed executors — the distributed ranks pass a
// context whose workspace holds a rank-local particle view and pruned
// level sets, and the arithmetic is identical because every lookup goes
// through the context's own boxed/active maps.
inline void p2m_chunk(ActiveContext& ctx, std::size_t lo, std::size_t hi,
                      PhaseStats& stats) {
  const int h = ctx.hier.depth();
  const std::size_t k = ctx.config.params.k();
  const double a = ctx.config.params.outer_ratio * ctx.hier.side_at(h);
  const dp::BoxedParticles& boxed = ctx.ws.boxed;
  const ParticleSet& p = boxed.sorted;
  const tree::LevelActiveSet& leaves = ctx.act.levels[h];
  std::uint64_t local_flops = 0;
  for (std::size_t ai = lo; ai < hi; ++ai) {
    const std::size_t f = leaves.boxes[ai];
    const std::uint32_t rank = boxed.flat_to_rank[f];
    const std::uint32_t b = boxed.box_begin[rank];
    const std::uint32_t e = boxed.box_begin[rank + 1];
    const tree::BoxCoord c = ctx.hier.coord_of(h, f);
    anderson::p2m(ctx.config.params, a, ctx.hier.center(h, c),
                  p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                  p.z().subspan(b, e - b), p.q().subspan(b, e - b),
                  {ctx.ws.far[h].data() + ai * k, k});
    local_flops += anderson::p2m_flops(k, e - b);
  }
  stats.flops += local_flops;
}

inline void l2p_chunk(ActiveContext& ctx, std::size_t lo, std::size_t hi,
                      PhaseStats& stats) {
  const int h = ctx.hier.depth();
  const std::size_t k = ctx.config.params.k();
  const double a = ctx.config.params.inner_ratio * ctx.hier.side_at(h);
  const dp::BoxedParticles& boxed = ctx.ws.boxed;
  const ParticleSet& p = boxed.sorted;
  const tree::LevelActiveSet& leaves = ctx.act.levels[h];
  const std::span<double> phi{ctx.ws.phi_sorted};
  const std::span<Vec3> grad{ctx.ws.grad_sorted};
  std::uint64_t local_flops = 0;
  for (std::size_t ai = lo; ai < hi; ++ai) {
    const std::size_t f = leaves.boxes[ai];
    const std::uint32_t rank = boxed.flat_to_rank[f];
    const std::uint32_t b = boxed.box_begin[rank];
    const std::uint32_t e = boxed.box_begin[rank + 1];
    const tree::BoxCoord c = ctx.hier.coord_of(h, f);
    const std::span<const double> g{ctx.ws.local[h].data() + ai * k, k};
    if (grad.empty()) {
      anderson::l2p(ctx.config.params, a, ctx.hier.center(h, c), g,
                    p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                    p.z().subspan(b, e - b), phi.subspan(b, e - b));
    } else {
      anderson::l2p_gradient(ctx.config.params, a, ctx.hier.center(h, c), g,
                             p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                             p.z().subspan(b, e - b), phi.subspan(b, e - b),
                             grad.subspan(b, e - b));
    }
    local_flops += anderson::l2p_flops(k, e - b, ctx.config.params.truncation);
  }
  stats.flops += local_flops;
}

// Upward T1 over active PARENTS [lo, hi) of level l: each parent gathers
// its active children (octant order 0..7 — the dense accumulation order)
// through the dense->active map of level l + 1. Children absent from the
// set are inactive and hold an exactly-zero far field, so skipping them
// changes nothing.
inline void upward_chunk(ActiveContext& ctx, int l, std::size_t lo,
                         std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& parents = ctx.act.levels[l];
  const tree::LevelActiveSet& children = ctx.act.levels[l + 1];
  const double* child = ctx.ws.far[l + 1].data();
  double* parent = ctx.ws.far[l].data();
  std::uint64_t local_flops = 0;
  for (std::size_t pi = lo; pi < hi; ++pi) {
    const tree::BoxCoord pc = ctx.hier.coord_of(l, parents.boxes[pi]);
    double* dst = parent + pi * k;
    for (int o = 0; o < 8; ++o) {
      const tree::BoxCoord cc = tree::Hierarchy::child_of(pc, o);
      const std::int32_t ca =
          children.dense_to_active[ctx.hier.flat_index(l + 1, cc)];
      if (ca < 0) continue;
      blas::vecmat(child + static_cast<std::size_t>(ca) * k,
                   ctx.trans().t1[o], k, dst, k, k, true);
      local_flops += blas::gemm_flops(1, k, k);
    }
  }
  stats.flops += local_flops;
}

// Downward T3 over active CHILDREN [lo, hi) of level l (l > 2): the parent
// of an active box is always active (parent closure), so the lookup cannot
// miss.
inline void downward_chunk(ActiveContext& ctx, int l, std::size_t lo,
                           std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& children = ctx.act.levels[l];
  const tree::LevelActiveSet& parents = ctx.act.levels[l - 1];
  const double* parent = ctx.ws.local[l - 1].data();
  double* child = ctx.ws.local[l].data();
  std::uint64_t local_flops = 0;
  for (std::size_t ci = lo; ci < hi; ++ci) {
    const tree::BoxCoord c = ctx.hier.coord_of(l, children.boxes[ci]);
    const int o = tree::Hierarchy::octant_of(c);
    const std::int32_t pa = parents.dense_to_active[ctx.hier.flat_index(
        l - 1, tree::Hierarchy::parent_of(c))];
    blas::vecmat(parent + static_cast<std::size_t>(pa) * k, ctx.trans().t3[o],
                 k, child + ci * k, k, k, true);
    local_flops += blas::gemm_flops(1, k, k);
  }
  stats.flops += local_flops;
}

// Non-supernode T2 over active TARGETS [lo, hi) of level l: the union
// offset list with per-axis target-parity admissibility, explicit bounds
// checks replacing the dense path's zero-padded grid, and active lookups
// replacing its implicit zero sources.
inline void interactive_chunk(ActiveContext& ctx, int l, std::size_t lo,
                              std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const int d = ctx.config.separation;
  const std::int32_t n = ctx.hier.boxes_per_side(l);
  const tree::LevelActiveSet& act = ctx.act.levels[l];
  const double* far = ctx.ws.far[l].data();
  double* local = ctx.ws.local[l].data();
  std::uint64_t local_flops = 0;
  for (std::size_t ti = lo; ti < hi; ++ti) {
    const tree::BoxCoord c = ctx.hier.coord_of(l, act.boxes[ti]);
    double* dst = local + ti * k;
    for (const UnionOffset& u : ctx.trans().union_offsets) {
      if (!u.all_parities) {
        if (!(u.valid_parity[0] & (1 << (c.ix & 1)))) continue;
        if (!(u.valid_parity[1] & (1 << (c.iy & 1)))) continue;
        if (!(u.valid_parity[2] & (1 << (c.iz & 1)))) continue;
      }
      const tree::BoxCoord s{c.ix + u.o.dx, c.iy + u.o.dy, c.iz + u.o.dz};
      if (s.ix < 0 || s.ix >= n || s.iy < 0 || s.iy >= n || s.iz < 0 ||
          s.iz >= n)
        continue;
      const std::int32_t sa = act.dense_to_active[ctx.hier.flat_index(l, s)];
      if (sa < 0) continue;
      blas::vecmat(far + static_cast<std::size_t>(sa) * k,
                   ctx.trans().t2[tree::offset_cube_index(u.o, d)], k, dst, k,
                   k, true);
      local_flops += blas::gemm_flops(1, k, k);
    }
  }
  stats.flops += local_flops;
}

// Supernode T2 over active TARGETS [lo, hi) of level l: the precomputed
// gather plan's rectangles already encode source-in-bounds per (octant,
// entry) — a target only needs its parent coordinate inside the rectangle
// plus an active lookup on the source.
inline void supernode_chunk(ActiveContext& ctx, int l, std::size_t lo,
                            std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const tree::LevelActiveSet& act = ctx.act.levels[l];
  const tree::LevelActiveSet& act_parent = ctx.act.levels[l - 1];
  const SupernodeLevelPlan& plan = ctx.plan.supernode_plans[l];
  const double* far = ctx.ws.far[l].data();
  const double* far_parent = ctx.ws.far[l - 1].data();
  double* local = ctx.ws.local[l].data();
  std::uint64_t local_flops = 0;
  for (std::size_t ti = lo; ti < hi; ++ti) {
    const tree::BoxCoord c = ctx.hier.coord_of(l, act.boxes[ti]);
    const int octant = tree::Hierarchy::octant_of(c);
    const tree::BoxCoord p = tree::Hierarchy::parent_of(c);
    double* dst = local + ti * k;
    for (const SupernodePlanEntry& pe : plan.per_octant[octant]) {
      if (p.ix < pe.lo[0] || p.ix >= pe.hi[0] || p.iy < pe.lo[1] ||
          p.iy >= pe.hi[1] || p.iz < pe.lo[2] || p.iz >= pe.hi[2])
        continue;
      const double* src;
      if (pe.parent_source) {
        const tree::BoxCoord s{p.ix + pe.offset.dx, p.iy + pe.offset.dy,
                               p.iz + pe.offset.dz};
        const std::int32_t sa =
            act_parent.dense_to_active[ctx.hier.flat_index(l - 1, s)];
        if (sa < 0) continue;
        src = far_parent + static_cast<std::size_t>(sa) * k;
      } else {
        const tree::BoxCoord s{c.ix + pe.offset.dx, c.iy + pe.offset.dy,
                               c.iz + pe.offset.dz};
        const std::int32_t sa =
            act.dense_to_active[ctx.hier.flat_index(l, s)];
        if (sa < 0) continue;
        src = far + static_cast<std::size_t>(sa) * k;
      }
      blas::vecmat(src, pe.matrix, k, dst, k, k, true);
      local_flops += blas::gemm_flops(1, k, k);
    }
  }
  stats.flops += local_flops;
}

}  // namespace hfmm::core::internal
