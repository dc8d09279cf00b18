// Sparse active-box executor (DESIGN.md Section 13).
//
// The dense executor iterates every box of every level; on clustered
// distributions most of those boxes are empty — their far fields are exactly
// zero and their local fields feed no particles. This executor derives
// per-level ACTIVE sets from the coordinate sort's leaf occupancy (leaf
// active iff non-empty, internal box active iff any child active) and runs
// every phase over active indices only:
//   * level stores shrink from 8^l x K to |active_l| x K values,
//   * translation stages skip inactive boxes entirely (their contribution
//     is exactly 0.0, so skipping them is arithmetic-neutral),
//   * the near field and the leaf phases split into cost-weighted chunks
//     (particle counts / pair counts) instead of equal box counts.
// Active boxes are not contiguous in the dense grids, so translations apply
// per box (BLAS-2, blas::vecmat) through the dense->active maps; the dense
// executor remains the BLAS-3 fast path for (near-)uniform inputs —
// solve() picks between them from the measured leaf occupancy
// (internal::kSparseBelowOccupancy).
//
// Reproducibility: active lists are ascending flat indices, stage chunk
// splits are fixed before the graph runs, and per-box source application
// follows the same fixed offset order as the dense path — results do not
// depend on scheduling or worker count.

#include <algorithm>
#include <string>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "solver_internal.hpp"
#include "sparse_chunks.hpp"

namespace hfmm::core {

namespace {

using internal::ActiveContext;
using internal::FmmPlan;
using internal::SolveWorkspace;
using internal::downward_chunk;
using internal::interactive_chunk;
using internal::l2p_chunk;
using internal::p2m_chunk;
using internal::particles_in;
using internal::supernode_chunk;
using internal::upward_chunk;

}  // namespace

// Derives the active level sets and the per-leaf cost model (the "active"
// phase), shared by the sparse and distributed executors: particle counts
// weight the leaf stages, near-field pair counts weight the near-field
// chunks (and the distributed partitioner). Both reuse workspace buffers —
// a warm solve grows nothing here.
void internal::update_active_costs(const FmmConfig& config,
                                   const internal::FmmPlan& plan,
                                   const tree::Hierarchy& hier, bool periodic,
                                   internal::SolveWorkspace& ws,
                                   PhaseBreakdown& breakdown) {
  const int h = hier.depth();
  const std::span<const tree::Offset> offsets =
      plan.near_list(config.near_symmetry);
  ScopedPhaseTimer timer(breakdown["active"]);
  const std::size_t cap_before = ws.active.capacity_bytes();
  tree::build_active_levels(hier, ws.occupied, ws.active);
  if (ws.active.capacity_bytes() != cap_before)
    ws.allocs.fetch_add(1, std::memory_order_relaxed);

  const tree::LevelActiveSet& leaves = ws.active.levels[h];
  const std::size_t nl = leaves.count();
  const std::int32_t nside = hier.boxes_per_side(h);
  internal::grow(ws.leaf_cost, nl, ws.allocs);
  internal::grow(ws.near_cost, nl, ws.allocs);
  // Per active leaf: leaf = its particle count, near = its near-field pair
  // count.
  for (std::size_t ai = 0; ai < nl; ++ai) {
    const std::size_t f = leaves.boxes[ai];
    const tree::BoxCoord c = hier.coord_of(h, f);
    const std::uint64_t t = particles_in(ws.boxed, f);
    ws.leaf_cost[ai] = t;
    std::uint64_t pairs = t * (t > 0 ? t - 1 : 0);
    for (const tree::Offset& o : offsets) {
      if (o == tree::Offset{0, 0, 0}) continue;
      tree::BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
      if (periodic) {
        nb.ix = (nb.ix + nside) % nside;
        nb.iy = (nb.iy + nside) % nside;
        nb.iz = (nb.iz + nside) % nside;
      } else if (nb.ix < 0 || nb.ix >= nside || nb.iy < 0 ||
                 nb.iy >= nside || nb.iz < 0 || nb.iz >= nside) {
        continue;
      }
      pairs += t * particles_in(ws.boxed, hier.flat_index(h, nb));
    }
    ws.near_cost[ai] = pairs;
  }
}

// solve() has already run the coordinate sort (charged to "sort"), filled
// ws.occupied with the non-empty leaf flats, and decided for this executor.
FmmResult FmmSolver::solve_sparse_(const ParticleSet& particles,
                                   const tree::Hierarchy& hier,
                                   FmmResult result, SolveView* view) {
  const FmmPlan& plan = *impl_->plan;
  SolveWorkspace& ws = impl_->ws;
  ThreadPool& pool = *impl_->pool;
  const std::size_t n = particles.size();
  const std::size_t k = config_.params.k();
  const int h = hier.depth();

  // Derive the active level sets and the per-leaf cost model ("active"
  // phase) — shared with the distributed executor, see update_active_costs.
  const std::span<const tree::Offset> offsets =
      plan.near_list(config_.near_symmetry);
  const bool far_capable = config_.kernel.far_field_capable();
  // Periodic short-range solves wrap box neighbours instead of clipping
  // them, so the cost model must count the wrapped pairs it will evaluate.
  const bool periodic = impl_->near.vdw.period > 0.0;
  internal::update_active_costs(config_, plan, hier, periodic, ws,
                                result.breakdown);
  const tree::ActiveLevels& act = ws.active;
  result.sparse = true;
  result.active_boxes = act.total_active();
  result.level_occupancy.resize(h + 1);
  for (int l = 0; l <= h; ++l) result.level_occupancy[l] = act.occupancy(l);
  {
    PhaseStats& st = result.breakdown["active"];
    st.boxes_active += act.total_active();
    st.boxes_total += act.total_dense();
  }

  const std::size_t active_leaves = act.levels[h].count();
  // Same fixed count as the dense executor, split by cost.
  const std::size_t nf_chunks = internal::near_chunk_count(active_leaves);

  ActiveContext ctx{config_, plan, hier, ws, act};
  using exec::NodeId;
  exec::PhaseGraph g;

  // The sort already ran (solve() needed its output to pick this executor);
  // the stage stays in the graph as a no-op so the timeline keeps the full
  // pipeline shape.
  const NodeId sort = g.add_serial("sort", "sort", [](PhaseStats&) {});
  const NodeId prep_levels =
      g.add_serial("prepare:levels", "workspace", [&](PhaseStats&) {
        if (!far_capable) return;  // no level stores for short-range solves
        ws.prepare_levels_sparse(act, k);
      });
  const NodeId prep_out =
      g.add_serial("prepare:outputs", "workspace", [&](PhaseStats&) {
        ws.prepare_outputs(n, config_.with_gradient);
        if (ws.near_scratch.chunks.size() < nf_chunks)
          ws.near_scratch.chunks.resize(nf_chunks);
        if (view == nullptr) {
          result.phi.assign(n, 0.0);
          if (config_.with_gradient) result.grad.assign(n, Vec3{});
        }
      });

  // Tail of the far-field chain (see the dense executor): short-range
  // kernels collapse it to empty serial nodes that keep the phase set
  // stable in the breakdown and timeline.
  NodeId far_tail = 0;
  if (!far_capable) {
    NodeId prev = prep_levels;
    for (const char* ph :
         {"p2m", "upward", "interactive", "downward", "l2p"}) {
      const NodeId id = g.add_serial(ph, ph, [](PhaseStats&) {});
      g.depend(id, prev);
      prev = id;
    }
    g.depend(prev, sort);
    g.depend(prev, prep_out);
    far_tail = prev;
  } else {
  const NodeId p2m = g.add_weighted(
      "p2m", "p2m", ws.leaf_cost, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
        p2m_chunk(ctx, lo, hi, st);
      });
  g.depend(p2m, sort);
  g.depend(p2m, prep_levels);

  // Upward chain over active parents; up[l] completes far[l].
  std::vector<NodeId> up(h, p2m);
  NodeId chain = p2m;
  for (int l = h - 1; l >= 1; --l) {
    const NodeId id = g.add(
        "upward:L" + std::to_string(l), "upward", act.levels[l].count(), 0,
        [&, l](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
          upward_chunk(ctx, l, lo, hi, st);
        });
    g.depend(id, chain);
    up[l] = id;
    chain = id;
  }
  const auto far_ready = [&](int l) { return l == h ? p2m : up[l]; };

  // Downward/interactive mirror the dense graph: per level, T3 (l > 2) then
  // T2, the T3 -> T2 edge fixing the accumulation order into local[l].
  for (int l = 2; l <= h; ++l) {
    const std::string ls = std::to_string(l);
    const std::size_t nl_act = act.levels[l].count();
    NodeId t3 = 0;
    const bool has_t3 = l > 2;
    if (has_t3) {
      t3 = g.add(
          "downward:L" + ls, "downward", nl_act, 0,
          [&, l](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
            downward_chunk(ctx, l, lo, hi, st);
          });
      g.depend(t3, chain);  // local[l-1] complete
    }
    const NodeId id =
        config_.supernodes
            ? g.add(
                  "interactive:L" + ls, "interactive", nl_act, 0,
                  [&, l](std::size_t, std::size_t lo, std::size_t hi,
                         PhaseStats& st) { supernode_chunk(ctx, l, lo, hi, st); })
            : g.add(
                  "interactive:L" + ls, "interactive", nl_act, 0,
                  [&, l](std::size_t, std::size_t lo, std::size_t hi,
                         PhaseStats& st) {
                    interactive_chunk(ctx, l, lo, hi, st);
                  });
    // Sources: far[l], plus far[l-1] for supernode parent-level entries.
    g.depend(id, config_.supernodes ? far_ready(l - 1) : far_ready(l));
    if (has_t3) g.depend(id, t3);
    chain = id;
  }

  const NodeId l2p = g.add_weighted(
      "l2p", "l2p", ws.leaf_cost, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
        l2p_chunk(ctx, lo, hi, st);
      });
  g.depend(l2p, chain);
  g.depend(l2p, prep_out);
  far_tail = l2p;
  }

  // Near field over the active leaf list, chunked by pair-count cost so no
  // worker inherits the whole dense cluster core.
  const std::span<const std::uint32_t> leaf_list{act.levels[h].boxes};
  const NodeId near = g.add_weighted(
      "near", "near", ws.near_cost, nf_chunks,
      [&, offsets, leaf_list](std::size_t c, std::size_t lo, std::size_t hi,
                              PhaseStats& st) {
        const NearFieldResult nf = near_field_chunk(
            hier, ws.boxed, offsets, config_.near_symmetry,
            config_.with_gradient, ws.near_scratch.chunks[c],
            leaf_list.subspan(lo, hi - lo), impl_->near);
        st.flops += nf.flops;
        st.pairs += nf.pair_interactions;
      },
      /*priority=*/1);
  g.depend(near, sort);
  g.depend(near, prep_out);

  const NodeId acc = g.add(
      "accumulate", "accumulate", n, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
        near_field_accumulate(ws.near_scratch, nf_chunks,
                              config_.with_gradient, ws.phi_sorted,
                              ws.grad_sorted, lo, hi);
        if (view != nullptr) return;  // streamed: outputs stay sorted
        for (std::size_t i = lo; i < hi; ++i) {
          result.phi[ws.boxed.perm[i]] = ws.phi_sorted[i];
          if (config_.with_gradient)
            result.grad[ws.boxed.perm[i]] = ws.grad_sorted[i];
        }
      });
  g.depend(acc, far_tail);
  g.depend(acc, near);

  g.run(pool,
        config_.mode == ExecutionMode::kThreads ? exec::RunMode::kConcurrent
                                                : exec::RunMode::kInline,
        result.breakdown, &result.timeline);

  // Per-phase occupancy: boxes visited vs. the dense counts the phase would
  // visit (the leaf phases iterate leaves; upward iterates parents 1..h-1;
  // interactive 2..h; downward 3..h).
  const auto record = [&](const char* phase, int lo_l, int hi_l) {
    PhaseStats& st = result.breakdown[phase];
    for (int l = lo_l; l <= hi_l; ++l) {
      st.boxes_active += act.levels[l].count();
      st.boxes_total += hier.boxes_at(l);
    }
  };
  record("near", h, h);
  if (far_capable) {
    record("p2m", h, h);
    record("l2p", h, h);
    record("upward", 1, h - 1);
    record("interactive", 2, h);
    if (h > 2) record("downward", 3, h);
  }

  result.breakdown["workspace"].allocs +=
      ws.allocs.load(std::memory_order_relaxed);
  result.workspace_allocs = result.breakdown["workspace"].allocs;
  result.workspace_bytes = ws.workspace_bytes();
  internal::publish_view(ws, config_, n, view);
  return result;
}

}  // namespace hfmm::core
