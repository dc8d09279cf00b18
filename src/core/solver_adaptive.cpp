// Adaptive leaf-front executor (DESIGN.md Section 15).
//
// The sparse executor still refines every occupied box to ONE global leaf
// level; on clustered distributions the dense cluster core then pays
// O(n_leaf^2) direct work while the sparse fringe is over-refined. This
// executor replaces the global leaf level with an ncrit-style LEAF FRONT
// marked over the full-depth active sets (tree/refinement.hpp):
//   * the coordinate sort runs at a refinement CAP depth (depth_for);
//   * a reachable box becomes a leaf once its subtree holds <= ncrit
//     bodies (ncrit from FmmConfig::ncrit, or picked per solve by the
//     cost-model selector tree::select_ncrit);
//   * a balance ripple keeps every direct adjacency within one level, so
//     the near field is a U list of same-level and one-level-up leaf pairs
//     evaluated at the finer side;
//   * the far field runs the shared sparse translation chunks over the
//     PRUNED refined tree (leaves + ancestors), with parent-level supernode
//     sources that are front leaves suppressed — their pairs are on the U
//     list (see sparse_chunks.hpp).
// P2M/L2P act at each leaf's own level and radius over the leaf's RUNS —
// maximal contiguous sorted-particle ranges covering its subtree — so a
// coarse leaf needs no particle re-sort.
//
// Reproducibility matches the other executors: the front, the run/pair plan
// and all chunk splits are fixed before the graph runs, leaves are
// enumerated in canonical (level, flat) order, and every U adjacency is
// owned by exactly one side — results do not depend on scheduling or worker
// count. Warm solves reuse every buffer (zero heap growth).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/refinement.hpp"
#include "solver_internal.hpp"
#include "sparse_chunks.hpp"

namespace hfmm::core {

namespace {

using internal::ActiveContext;
using internal::FmmPlan;
using internal::SolveWorkspace;
using internal::downward_chunk;
using internal::interactive_chunk;
using internal::supernode_chunk;
using internal::upward_chunk;

// P2M over front leaves [lo, hi): a leaf's outer approximation, at the
// LEAF'S level and sphere radius, accumulates every run of its subtree
// (anderson::p2m adds, so multi-run leaves compose exactly).
void p2m_front_chunk(ActiveContext& ctx, std::size_t lo, std::size_t hi,
                     PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  SolveWorkspace& ws = ctx.ws;
  const tree::LeafFront& front = ws.front;
  const ParticleSet& p = ws.boxed.sorted;
  std::uint64_t local_flops = 0;
  for (std::size_t li = lo; li < hi; ++li) {
    const int ll = front.leaf_level[li];
    const std::size_t f = front.leaf_flat[li];
    const std::int32_t row = ctx.act.levels[ll].dense_to_active[f];
    const double a = ctx.config.params.outer_ratio * ctx.hier.side_at(ll);
    const Vec3 center = ctx.hier.center(ll, ctx.hier.coord_of(ll, f));
    const std::span<double> g{
        ws.far[ll].data() + static_cast<std::size_t>(row) * k, k};
    for (std::uint32_t r = ws.run_begin[li]; r < ws.run_begin[li + 1]; ++r) {
      const std::uint32_t b = ws.run_bounds[2 * r];
      const std::uint32_t e = ws.run_bounds[2 * r + 1];
      anderson::p2m(ctx.config.params, a, center, p.x().subspan(b, e - b),
                    p.y().subspan(b, e - b), p.z().subspan(b, e - b),
                    p.q().subspan(b, e - b), g);
      local_flops += anderson::p2m_flops(k, e - b);
    }
  }
  stats.flops += local_flops;
}

void l2p_front_chunk(ActiveContext& ctx, std::size_t lo, std::size_t hi,
                     PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  SolveWorkspace& ws = ctx.ws;
  const tree::LeafFront& front = ws.front;
  const ParticleSet& p = ws.boxed.sorted;
  const std::span<double> phi{ws.phi_sorted};
  const std::span<Vec3> grad{ws.grad_sorted};
  std::uint64_t local_flops = 0;
  for (std::size_t li = lo; li < hi; ++li) {
    const int ll = front.leaf_level[li];
    const std::size_t f = front.leaf_flat[li];
    const std::int32_t row = ctx.act.levels[ll].dense_to_active[f];
    const double a = ctx.config.params.inner_ratio * ctx.hier.side_at(ll);
    const Vec3 center = ctx.hier.center(ll, ctx.hier.coord_of(ll, f));
    const std::span<const double> g{
        ws.local[ll].data() + static_cast<std::size_t>(row) * k, k};
    for (std::uint32_t r = ws.run_begin[li]; r < ws.run_begin[li + 1]; ++r) {
      const std::uint32_t b = ws.run_bounds[2 * r];
      const std::uint32_t e = ws.run_bounds[2 * r + 1];
      if (grad.empty()) {
        anderson::l2p(ctx.config.params, a, center, g,
                      p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                      p.z().subspan(b, e - b), phi.subspan(b, e - b));
      } else {
        anderson::l2p_gradient(ctx.config.params, a, center, g,
                               p.x().subspan(b, e - b),
                               p.y().subspan(b, e - b),
                               p.z().subspan(b, e - b), phi.subspan(b, e - b),
                               grad.subspan(b, e - b));
      }
      local_flops +=
          anderson::l2p_flops(k, e - b, ctx.config.params.truncation);
    }
  }
  stats.flops += local_flops;
}

}  // namespace

// solve() has already run the coordinate sort at the refinement cap depth
// and filled ws.occupied; this executor derives the front and its plans in
// the "active" phase, then drives the same phase-graph pipeline as the
// sparse executor over the pruned refined tree.
FmmResult FmmSolver::solve_adaptive_(const ParticleSet& particles,
                                     const tree::Hierarchy& hier,
                                     FmmResult result, SolveView* view) {
  const FmmPlan& plan = *impl_->plan;
  SolveWorkspace& ws = impl_->ws;
  ThreadPool& pool = *impl_->pool;
  const std::size_t n = particles.size();
  const std::size_t k = config_.params.k();
  const int h = hier.depth();

  const std::span<const tree::Offset> near_full{plan.near_offsets};
  const std::span<const tree::Offset> near_half{plan.near_half_offsets};
  const auto vv_bytes = [](const auto& vv) {
    std::size_t t = 0;
    for (const auto& v : vv)
      t += v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    return t;
  };

  // "active" phase: full-depth active sets, subtree counts, the cost-model
  // ncrit, the marked/balanced front, the pruned level sets, and the U-list
  // run/pair plan. Everything reuses workspace buffers — a warm solve grows
  // nothing here.
  {
    ScopedPhaseTimer timer(result.breakdown["active"]);
    {
      const std::size_t cap_before = ws.active.capacity_bytes();
      tree::build_active_levels(hier, ws.occupied, ws.active);
      if (ws.active.capacity_bytes() != cap_before)
        ws.allocs.fetch_add(1, std::memory_order_relaxed);
    }

    const tree::LevelActiveSet& fine = ws.active.levels[h];
    const std::size_t nfine = fine.count();
    internal::grow(ws.leaf_counts, nfine, ws.allocs);
    for (std::size_t ai = 0; ai < nfine; ++ai)
      ws.leaf_counts[ai] = static_cast<std::uint32_t>(
          internal::particles_in(ws.boxed, fine.boxes[ai]));
    {
      const std::size_t cap_before = vv_bytes(ws.subtree_counts);
      tree::build_subtree_counts(hier, ws.active, ws.leaf_counts,
                                 ws.subtree_counts);
      if (vv_bytes(ws.subtree_counts) != cap_before)
        ws.allocs.fetch_add(1, std::memory_order_relaxed);
    }

    tree::RefinementCostParams cost_params;
    cost_params.k = k;
    cost_params.supernodes = config_.supernodes;
    int ncrit = config_.ncrit;
    if (ncrit <= 0) {
      static constexpr int kLadder[] = {8, 16, 32, 64, 128};
      const std::size_t cap_before = ws.front_scratch.capacity_bytes();
      ncrit = tree::select_ncrit(hier, ws.active, ws.subtree_counts,
                                 near_full, near_half, cost_params, kLadder,
                                 /*min_level=*/2, ws.front_scratch);
      if (ws.front_scratch.capacity_bytes() != cap_before)
        ws.allocs.fetch_add(1, std::memory_order_relaxed);
    }
    result.ncrit = ncrit;
    {
      const std::size_t cap_before = ws.front.capacity_bytes();
      tree::build_leaf_front(hier, ws.active, ws.subtree_counts, ncrit,
                             /*min_level=*/2, near_full, ws.front);
      if (ws.front.capacity_bytes() != cap_before)
        ws.allocs.fetch_add(1, std::memory_order_relaxed);
    }
    {
      const std::size_t cap_before =
          ws.pruned.capacity_bytes() + vv_bytes(ws.pruned_leaf);
      tree::build_front_levels(hier, ws.active, ws.front, ws.pruned,
                               ws.pruned_leaf);
      if (ws.pruned.capacity_bytes() + vv_bytes(ws.pruned_leaf) != cap_before)
        ws.allocs.fetch_add(1, std::memory_order_relaxed);
    }

    const tree::LeafFront& front = ws.front;
    const std::size_t nl = front.leaves();

    // Owner of every fine active leaf: walk up the ancestor chain to the
    // covering front leaf (the marking guarantees exactly one exists).
    internal::grow(ws.fine_owner, nfine, ws.allocs);
    for (std::size_t ai = 0; ai < nfine; ++ai) {
      tree::BoxCoord c = hier.coord_of(h, fine.boxes[ai]);
      for (int l = h;; --l) {
        const std::int32_t al =
            ws.active.levels[l].dense_to_active[hier.flat_index(l, c)];
        if (front.state[l][static_cast<std::size_t>(al)] ==
            tree::LeafFront::kLeaf) {
          ws.fine_owner[ai] = static_cast<std::uint32_t>(
              front.leaf_id[l][static_cast<std::size_t>(al)]);
          break;
        }
        c = tree::Hierarchy::parent_of(c);
      }
    }

    // Run plan: maximal contiguous sorted-particle ranges per front leaf.
    // Fine active leaves ascend in flat order; a run breaks when the owner
    // changes or the particle range is not contiguous with the previous
    // leaf's. Two passes (count, fill) keep runs grouped per owner while
    // preserving ascending particle order within each owner.
    const auto range_of = [&](std::size_t ai) {
      const std::uint32_t rk = ws.boxed.flat_to_rank[fine.boxes[ai]];
      return std::pair<std::uint32_t, std::uint32_t>{
          ws.boxed.box_begin[rk], ws.boxed.box_begin[rk + 1]};
    };
    internal::grow(ws.run_begin, nl + 1, ws.allocs);
    std::fill(ws.run_begin.begin(), ws.run_begin.begin() + nl + 1, 0u);
    std::size_t nruns = 0;
    for (std::size_t ai = 0; ai < nfine; ++ai) {
      if (ai == 0 || ws.fine_owner[ai] != ws.fine_owner[ai - 1] ||
          range_of(ai).first != range_of(ai - 1).second) {
        ++ws.run_begin[ws.fine_owner[ai] + 1];
        ++nruns;
      }
    }
    for (std::size_t li = 0; li < nl; ++li)
      ws.run_begin[li + 1] += ws.run_begin[li];
    internal::grow(ws.run_bounds, 2 * nruns, ws.allocs);
    internal::grow(ws.run_cursor, nl, ws.allocs);
    std::fill(ws.run_cursor.begin(), ws.run_cursor.begin() + nl, 0u);
    for (std::size_t ai = 0; ai < nfine; ++ai) {
      const auto [b, e] = range_of(ai);
      const std::uint32_t owner = ws.fine_owner[ai];
      if (ai > 0 && owner == ws.fine_owner[ai - 1] &&
          b == range_of(ai - 1).second) {
        // Contiguous with the owner's previous leaf: extend its last run.
        ws.run_bounds[2 * (ws.run_begin[owner] + ws.run_cursor[owner] - 1) +
                      1] = e;
      } else {
        const std::uint32_t r = ws.run_begin[owner] + ws.run_cursor[owner]++;
        ws.run_bounds[2 * r] = b;
        ws.run_bounds[2 * r + 1] = e;
      }
    }

    // U-list pair plan: every adjacency once, under its owning leaf.
    internal::grow(ws.pair_begin, nl + 1, ws.allocs);
    std::fill(ws.pair_begin.begin(), ws.pair_begin.begin() + nl + 1, 0u);
    std::size_t npairs = 0;
    tree::for_each_near_pair(hier, ws.active, front, near_full, near_half,
                             [&](std::size_t li, int, std::uint32_t) {
                               ++ws.pair_begin[li + 1];
                               ++npairs;
                             });
    for (std::size_t li = 0; li < nl; ++li)
      ws.pair_begin[li + 1] += ws.pair_begin[li];
    internal::grow(ws.pair_leaf, npairs, ws.allocs);
    std::fill(ws.run_cursor.begin(), ws.run_cursor.begin() + nl, 0u);
    tree::for_each_near_pair(
        hier, ws.active, front, near_full, near_half,
        [&](std::size_t li, int sl, std::uint32_t sa) {
          ws.pair_leaf[ws.pair_begin[li] + ws.run_cursor[li]++] =
              static_cast<std::uint32_t>(
                  front.leaf_id[sl][static_cast<std::size_t>(sa)]);
        });

    // Cost weights: subtree body counts drive the leaf stages, exact U-list
    // pair counts drive the near-field chunk split.
    internal::grow(ws.leaf_cost, nl, ws.allocs);
    internal::grow(ws.near_cost, nl, ws.allocs);
    for (std::size_t li = 0; li < nl; ++li) {
      const int ll = front.leaf_level[li];
      const std::int32_t ai =
          ws.active.levels[ll].dense_to_active[front.leaf_flat[li]];
      ws.leaf_cost[li] = ws.subtree_counts[ll][static_cast<std::size_t>(ai)];
    }
    for (std::size_t li = 0; li < nl; ++li) {
      const std::uint64_t t = ws.leaf_cost[li];
      std::uint64_t pairs = t * (t > 0 ? t - 1 : 0);
      for (std::uint32_t pi = ws.pair_begin[li]; pi < ws.pair_begin[li + 1];
           ++pi)
        pairs += t * ws.leaf_cost[ws.pair_leaf[pi]];
      ws.near_cost[li] = pairs;
    }

    PhaseStats& st = result.breakdown["active"];
    st.boxes_active += ws.pruned.total_active();
    st.boxes_total += ws.active.total_dense();
  }

  const tree::ActiveLevels& act = ws.pruned;
  const tree::LeafFront& front = ws.front;
  const int maxL = front.max_leaf_level;
  const std::size_t nl = front.leaves();
  result.adaptive = true;
  result.leaf_boxes = nl;
  result.front_leaves = nl;
  result.active_boxes = act.total_active();
  result.level_occupancy.resize(maxL + 1);
  for (int l = 0; l <= maxL; ++l)
    result.level_occupancy[l] = act.occupancy(l);

  const std::size_t nf_chunks = internal::near_chunk_count(nl);

  ActiveContext ctx{config_, plan, hier, ws, act, &ws.pruned_leaf};
  using exec::NodeId;
  exec::PhaseGraph g;

  const NodeId sort = g.add_serial("sort", "sort", [](PhaseStats&) {});
  const NodeId prep_levels =
      g.add_serial("prepare:levels", "workspace", [&](PhaseStats&) {
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

  const NodeId p2m = g.add_weighted(
      "p2m", "p2m", ws.leaf_cost, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
        p2m_front_chunk(ctx, lo, hi, st);
      });
  g.depend(p2m, sort);
  g.depend(p2m, prep_levels);

  // Upward chain over the pruned parents; up[l] completes far[l] (leaves at
  // level l were written directly by P2M — the per-box T1 products
  // accumulate on top).
  std::vector<NodeId> up(maxL, p2m);
  NodeId chain = p2m;
  for (int l = maxL - 1; l >= 1; --l) {
    const NodeId id = g.add(
        "upward:L" + std::to_string(l), "upward", act.levels[l].count(), 0,
        [&, l](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
          upward_chunk(ctx, l, lo, hi, st);
        });
    g.depend(id, chain);
    up[l] = id;
    chain = id;
  }
  const auto far_ready = [&](int l) { return l == maxL ? p2m : up[l]; };

  for (int l = 2; l <= maxL; ++l) {
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
            ? g.add("interactive:L" + ls, "interactive", nl_act, 0,
                    [&, l](std::size_t, std::size_t lo, std::size_t hi,
                           PhaseStats& st) {
                      supernode_chunk(ctx, l, lo, hi, st);
                    })
            : g.add("interactive:L" + ls, "interactive", nl_act, 0,
                    [&, l](std::size_t, std::size_t lo, std::size_t hi,
                           PhaseStats& st) {
                      interactive_chunk(ctx, l, lo, hi, st);
                    });
    g.depend(id, config_.supernodes ? far_ready(l - 1) : far_ready(l));
    if (has_t3) g.depend(id, t3);
    chain = id;
  }

  const NodeId l2p = g.add_weighted(
      "l2p", "l2p", ws.leaf_cost, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
        l2p_front_chunk(ctx, lo, hi, st);
      });
  g.depend(l2p, chain);
  g.depend(l2p, prep_out);

  // Near field over the front leaves — the U list — chunked by exact pair
  // counts so no worker inherits the whole cluster core.
  const NodeId near = g.add_weighted(
      "near", "near", ws.near_cost, nf_chunks,
      [&](std::size_t c, std::size_t lo, std::size_t hi, PhaseStats& st) {
        const AdaptiveLeafPlan aplan{ws.run_begin, ws.run_bounds,
                                     ws.pair_begin, ws.pair_leaf};
        const NearFieldResult nf = near_field_adaptive_chunk(
            ws.boxed, aplan, config_.with_gradient, ws.near_scratch.chunks[c],
            lo, hi, config_.kernel.softening);
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
  g.depend(acc, l2p);
  g.depend(acc, near);

  g.run(pool,
        config_.mode == ExecutionMode::kThreads ? exec::RunMode::kConcurrent
                                                : exec::RunMode::kInline,
        result.breakdown, &result.timeline);

  // Per-phase occupancy: the leaf phases visit the front (vs. the dense
  // cap-level leaves a uniform executor would visit); the translation
  // phases visit the pruned sets of their levels.
  const auto record = [&](const char* phase, int lo_l, int hi_l) {
    PhaseStats& st = result.breakdown[phase];
    for (int l = lo_l; l <= hi_l; ++l) {
      st.boxes_active += act.levels[l].count();
      st.boxes_total += hier.boxes_at(l);
    }
  };
  for (const char* phase : {"p2m", "l2p", "near"}) {
    PhaseStats& st = result.breakdown[phase];
    st.boxes_active += nl;
    st.boxes_total += hier.boxes_at(h);
  }
  record("upward", 1, maxL - 1);
  record("interactive", 2, maxL);
  if (maxL > 2) record("downward", 3, maxL);

  result.breakdown["workspace"].allocs +=
      ws.allocs.load(std::memory_order_relaxed);
  result.workspace_allocs = result.breakdown["workspace"].allocs;
  result.workspace_bytes = ws.workspace_bytes();
  internal::publish_view(ws, config_, n, view);
  return result;
}

}  // namespace hfmm::core
