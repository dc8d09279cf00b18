#pragma once
// Active-set chunk bodies of the shared-memory executor (solver.cpp). Every
// stage iterates ACTIVE indices of the level sets; a chunk is a range
// [lo, hi) of them (parents for T1, children for T3, targets for T2).
//
// A translation stage walks its matrices in a fixed order (T1: octants
// 0..7; T3: each child's octant matrix; union T2: offsets in list order;
// supernode T2: per octant, entries in list order) and hands each (source
// row, target) pair it finds to a GatherSink: sink.add(level, row, t)
// gathers row `row` of level `level`'s store into the chunk's slab for
// target t, and sink.apply(matrix) applies `matrix` to the rows gathered
// since the last apply with one internal::apply_rows call (Section 3.3.3
// aggregation) and adds product row r into its destination row. Each
// destination therefore receives its contributions in matrix order, and a
// gemm row's bits do not depend on how many rows share the call
// (blas::gemm), so results do not depend on the chunk split or the worker
// count. Inactive sources hold exactly-zero far fields; skipping them
// changes nothing.

#include <array>
#include <cstdint>
#include <cstring>

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

// Flat index of c at a level with n boxes per side (Hierarchy::flat_index).
inline std::int64_t flat_of(const tree::BoxCoord& c, std::int64_t n) {
  return (static_cast<std::int64_t>(c.iz) * n + c.iy) * n + c.ix;
}

// P2M over active leaves [lo, hi): every active leaf is non-empty by
// construction, writing its outer approximation at its ACTIVE row.
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

// The boxes [lo, hi) of one level's active set, over the chunk's ChunkSlot:
// their coordinates computed once and grouped by octant.
class ChunkBoxes {
 public:
  ChunkBoxes(ActiveContext& ctx, std::size_t chunk, int level, std::size_t lo,
             std::size_t hi)
      : slot_(ctx.ws.arena.slot(chunk)) {
    const tree::LevelActiveSet& set = ctx.act.levels[level];
    const std::size_t m = hi - lo;
    grow(slot_.coord, m, ctx.ws.allocs);
    grow(slot_.order, m, ctx.ws.allocs);
    std::array<std::size_t, 9> fill{};
    for (std::size_t i = 0; i < m; ++i) {
      slot_.coord[i] = ctx.hier.coord_of(level, set.boxes[lo + i]);
      ++fill[tree::Hierarchy::octant_of(slot_.coord[i]) + 1];
    }
    for (int o = 0; o < 8; ++o) fill[o + 1] += fill[o];
    octant_begin_ = fill;
    for (std::size_t i = 0; i < m; ++i)
      slot_.order[fill[tree::Hierarchy::octant_of(slot_.coord[i])]++] =
          static_cast<std::uint32_t>(i);
  }

  // Coordinates of chunk box i (chunk order).
  const tree::BoxCoord& coord(std::size_t i) const { return slot_.coord[i]; }
  // Chunk boxes of octant o: positions order(j) for j in
  // [octant_begin(o), octant_begin(o + 1)).
  std::size_t octant_begin(int o) const { return octant_begin_[o]; }
  std::uint32_t order(std::size_t j) const { return slot_.order[j]; }

 private:
  ChunkSlot& slot_;
  std::array<std::size_t, 9> octant_begin_{};
};

// The translation stages' sink, over the chunk's ChunkSlot: add() copies
// the source row into the slab; apply() runs the matrix over the gathered
// rows with one internal::apply_rows call and scatter-adds product row r
// into `to` at its target's row.
class GatherSink {
 public:
  // Sources are rows of `from` (the far or local level stores).
  GatherSink(ActiveContext& ctx, std::size_t chunk, std::size_t lo,
             std::size_t hi, const std::vector<std::vector<double>>& from,
             std::vector<double>& to)
      : slot_(ctx.ws.arena.slot(chunk)),
        from_(from),
        to_(to.data()),
        k_(ctx.config.params.k()),
        mode_(ctx.config.aggregation) {
    grow(slot_.slab, (hi - lo) * k_, ctx.ws.allocs);
    grow(slot_.out, (hi - lo) * k_, ctx.ws.allocs);
    grow(slot_.dst, hi - lo, ctx.ws.allocs);
  }

  void add(int level, std::int32_t row, std::size_t target) {
    std::memcpy(slot_.slab.data() + rows_ * k_,
                from_[level].data() + static_cast<std::size_t>(row) * k_,
                k_ * sizeof(double));
    slot_.dst[rows_++] = static_cast<std::uint32_t>(target);
  }

  void apply(const double* matrix) {
    if (rows_ == 0) return;
    double* out = slot_.out.data();
    std::fill(out, out + rows_ * k_, 0.0);
    apply_rows(matrix, k_, slot_.slab.data(), out, rows_, mode_, flops_);
    for (std::size_t r = 0; r < rows_; ++r) {
      double* d = to_ + static_cast<std::size_t>(slot_.dst[r]) * k_;
      const double* o = out + r * k_;
      for (std::size_t j = 0; j < k_; ++j) d[j] += o[j];
    }
    rows_ = 0;
  }

  void report(PhaseStats& stats) const { stats.flops += flops_; }

 private:
  ChunkSlot& slot_;
  const std::vector<std::vector<double>>& from_;
  double* to_;
  std::size_t k_;
  AggregationMode mode_;
  std::size_t rows_ = 0;
  std::uint64_t flops_ = 0;
};

// Upward T1 over active PARENTS [lo, hi) of level l, into far[l]: per
// octant o, the active children at o of the chunk's parents (children
// absent from the level set are inactive). Sources: far[l + 1].
inline void upward_chunk(ActiveContext& ctx, int l, std::size_t chunk,
                         std::size_t lo, std::size_t hi, PhaseStats& stats) {
  GatherSink sink(ctx, chunk, lo, hi, ctx.ws.far, ctx.ws.far[l]);
  const tree::LevelActiveSet& children = ctx.act.levels[l + 1];
  const std::int64_t nc = ctx.hier.boxes_per_side(l + 1);
  const ChunkBoxes b(ctx, chunk, l, lo, hi);
  for (int o = 0; o < 8; ++o) {
    for (std::size_t i = 0; i < hi - lo; ++i) {
      const std::int32_t ca = children.dense_to_active[flat_of(
          tree::Hierarchy::child_of(b.coord(i), o), nc)];
      if (ca >= 0) sink.add(l + 1, ca, lo + i);
    }
    sink.apply(ctx.trans().t1[o]);
  }
  sink.report(stats);
}

// Downward T3 over active CHILDREN [lo, hi) of level l (l > 2), into
// local[l]: the children of octant o take t3[o] from their parent, which is
// always active (parent closure). Sources: local[l - 1].
inline void downward_chunk(ActiveContext& ctx, int l, std::size_t chunk,
                           std::size_t lo, std::size_t hi, PhaseStats& stats) {
  GatherSink sink(ctx, chunk, lo, hi, ctx.ws.local, ctx.ws.local[l]);
  const tree::LevelActiveSet& parents = ctx.act.levels[l - 1];
  const std::int64_t np = ctx.hier.boxes_per_side(l - 1);
  const ChunkBoxes b(ctx, chunk, l, lo, hi);
  for (int o = 0; o < 8; ++o) {
    for (std::size_t j = b.octant_begin(o); j < b.octant_begin(o + 1); ++j) {
      const std::size_t i = b.order(j);
      sink.add(l - 1,
               parents.dense_to_active[flat_of(
                   tree::Hierarchy::parent_of(b.coord(i)), np)],
               lo + i);
    }
    sink.apply(ctx.trans().t3[o]);
  }
  sink.report(stats);
}

// Non-supernode T2 over active TARGETS [lo, hi) of level l: per union
// offset, the targets of an admissible parity (paper Section 3.3.2) whose
// source lies in the domain and is active. Sources: far[l].
inline void union_body(ActiveContext& ctx, int l, std::size_t chunk,
                       std::size_t lo, std::size_t hi, GatherSink& sink) {
  const int d = ctx.config.separation;
  const std::int32_t n = ctx.hier.boxes_per_side(l);
  const tree::LevelActiveSet& act = ctx.act.levels[l];
  const ChunkBoxes b(ctx, chunk, l, lo, hi);
  for (const UnionOffset& u : ctx.trans().union_offsets) {
    const std::int64_t delta = flat_of({u.o.dx, u.o.dy, u.o.dz}, n);
    for (std::size_t i = 0; i < hi - lo; ++i) {
      const tree::BoxCoord& c = b.coord(i);
      if (!u.all_parities) {
        if (!(u.valid_parity[0] & (1 << (c.ix & 1)))) continue;
        if (!(u.valid_parity[1] & (1 << (c.iy & 1)))) continue;
        if (!(u.valid_parity[2] & (1 << (c.iz & 1)))) continue;
      }
      const std::int32_t sx = c.ix + u.o.dx, sy = c.iy + u.o.dy,
                         sz = c.iz + u.o.dz;
      if (sx < 0 || sx >= n || sy < 0 || sy >= n || sz < 0 || sz >= n)
        continue;
      const std::int32_t sa = act.dense_to_active[act.boxes[lo + i] + delta];
      if (sa >= 0) sink.add(l, sa, lo + i);
    }
    sink.apply(ctx.trans().t2[tree::offset_cube_index(u.o, d)]);
  }
}

// Supernode T2 over active TARGETS [lo, hi) of level l: per octant, the
// octant's targets against each entry of its supernode list in list order;
// like union_body, a target skips an entry whose source lies outside its
// level or is inactive. Sources: far[l], and far[l - 1] for parent-level
// entries (offset from the target's parent).
inline void supernode_body(ActiveContext& ctx, int l, std::size_t chunk,
                           std::size_t lo, std::size_t hi, GatherSink& sink) {
  const TranslationData& trans = ctx.trans();
  const ChunkBoxes b(ctx, chunk, l, lo, hi);
  for (int o = 0; o < 8; ++o) {
    const std::vector<tree::SupernodeEntry>& entries = trans.supernode_lists[o];
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const bool up = entries[e].source_level_up == 1;
      const int sl = up ? l - 1 : l;
      const std::int32_t n = ctx.hier.boxes_per_side(sl);
      const tree::Offset& off = entries[e].offset;
      for (std::size_t j = b.octant_begin(o); j < b.octant_begin(o + 1);
           ++j) {
        const std::size_t i = b.order(j);
        const tree::BoxCoord c =
            up ? tree::Hierarchy::parent_of(b.coord(i)) : b.coord(i);
        const tree::BoxCoord s{c.ix + off.dx, c.iy + off.dy, c.iz + off.dz};
        if (s.ix < 0 || s.ix >= n || s.iy < 0 || s.iy >= n || s.iz < 0 ||
            s.iz >= n)
          continue;
        const std::int32_t sa =
            ctx.act.levels[sl].dense_to_active[flat_of(s, n)];
        if (sa >= 0) sink.add(sl, sa, lo + i);
      }
      sink.apply(trans.supernode[o][e]);
    }
  }
}

// T2 into local[l], with the body the config selects.
inline void interactive_chunk(ActiveContext& ctx, int l, std::size_t chunk,
                              std::size_t lo, std::size_t hi,
                              PhaseStats& stats) {
  GatherSink sink(ctx, chunk, lo, hi, ctx.ws.far, ctx.ws.local[l]);
  if (ctx.config.supernodes)
    supernode_body(ctx, l, chunk, lo, hi, sink);
  else
    union_body(ctx, l, chunk, lo, hi, sink);
  sink.report(stats);
}

}  // namespace hfmm::core::internal
