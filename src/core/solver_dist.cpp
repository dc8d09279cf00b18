// Owner-computes distributed executor (DESIGN.md Section 18).
//
// R in-process ranks each run their OWN phase-graph DAG over a pruned local
// essential tree (LET): the geometric partitioner splits the active leaves
// (== the sorted particle order) into contiguous runs, subtree ownership
// follows the leaves upward, and a requirement walk determines exactly
// which remote rows and ghost bodies each rank's traversal touches. The
// walk runs the very translation bodies the rank graphs run
// (sparse_chunks.hpp: T1, union or supernode T2, T3) over the global active
// sets with a sink that marks instead of gathering, plus the shared
// near-neighbour walk (tree::for_each_neighbour) for the ghost bodies, so a
// source lookup is written once. Rows and bodies flow between the rank DAGs
// as explicit typed messages through the dist::Fabric — ranks share NO
// mutable solver state; every graph runs on its own dedicated thread
// (exec::run_graphs) and the only cross-rank synchronization is the
// fabric's mailboxes, so the whole solve is clean under TSan by
// construction.
//
// Bitwise identity to the shared-memory executor (the acceptance bar):
//   * the constructor forces near_symmetry = false, so every target's
//     near-field contributions accumulate while processing its OWN leaf, in
//     the fixed offset order — independent of which other leaves share the
//     chunk;
//   * rank-local particle copies and received halo rows are bit-exact
//     copies of the same doubles, and every stage (P2M, T1, T2, T3, L2P)
//     runs the chunk bodies of sparse_chunks.hpp through the rank's own
//     active maps: each destination row receives its translations in the
//     same matrix order, and a gemm row's bits do not depend on which other
//     rows share the call — so by induction over the phase chain each owned
//     row equals the single-rank row bit for bit;
//   * each rank runs single-chunk stages inline.
//
// The message schedule is deadlock-free by construction: every send is
// posted before the sender's next blocking receive (graph edges order
// send -> recv per level), and cross-rank dependencies only point backward
// in phase order (bodies, then far levels h..1, then local levels 2..h-1).

#include <cassert>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dist/channel.hpp"
#include "hfmm/dist/let.hpp"
#include "hfmm/dist/partition.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/ownership.hpp"
#include "solver_internal.hpp"
#include "sparse_chunks.hpp"

namespace hfmm::core {

namespace internal {

// Cross-solve distributed state: the per-rank workspaces persist so a warm
// distributed solve reuses their buffers (level stores, scratch, particle
// copies). The LET plan itself is rebuilt per solve — particles move, so
// the halo sets can change shape.
struct DistState {
  std::vector<std::unique_ptr<SolveWorkspace>> ws;
  std::vector<std::uint32_t> leaf_count;  // particles per global active leaf
  tree::OwnershipLevels own;
};

}  // namespace internal

namespace {

using internal::ActiveContext;
using internal::FmmPlan;
using internal::SolveWorkspace;
using internal::downward_chunk;
using internal::interactive_chunk;
using internal::l2p_chunk;
using internal::p2m_chunk;
using internal::upward_chunk;

// ---------------------------------------------------------------------------
// Requirement walk: marks, per owning rank, every REMOTE source the rank's
// owned-target stages will read. The far marks come from the translation
// bodies the rank graphs run (sparse_chunks.hpp), each run over a level's
// whole GLOBAL active set with a sink that marks instead of gathering, so
// demand matches the lookups by construction. The near marks walk the same
// d-neighbourhood (wrapped for periodic vdW) the near field evaluates.
// ---------------------------------------------------------------------------

// A translation-body sink over targets at `level`: the owner of target t
// (a global active index) needs the source row as a `kind` cell.
struct MarkSink {
  dist::LetBuilder& let;
  const tree::OwnershipLevels& own;
  int level;
  dist::MsgKind kind;

  void add(int src_level, std::int32_t row, std::size_t t) {
    let.need_cell(kind, own.at(level, static_cast<std::int32_t>(t)), src_level,
                  row);
  }
  void apply(const double*) {}
};

void walk_requirements(ActiveContext& ctx, const tree::OwnershipLevels& own,
                       bool periodic, bool far_capable,
                       dist::LetBuilder& let) {
  const tree::Hierarchy& hier = ctx.hier;
  const int h = hier.depth();
  if (far_capable) {
    // Each body runs as one chunk over the whole level, in slot 0.
    ctx.ws.arena.ensure(1, ctx.ws.allocs);
    for (int l = 1; l <= h; ++l) {
      const std::size_t count = ctx.act.levels[l].count();
      MarkSink far{let, own, l, dist::MsgKind::kFar};
      if (l < h) internal::upward_body(ctx, l, 0, 0, count, far);
      if (l >= 2) internal::interactive_body(ctx, l, 0, 0, count, far);
      MarkSink local{let, own, l, dist::MsgKind::kLocal};
      if (l >= 3) internal::downward_body(ctx, l, 0, 0, count, local);
    }
  }
  const tree::LevelActiveSet& leaves = ctx.act.levels[h];
  for (std::size_t ai = 0; ai < leaves.count(); ++ai) {
    const int r = own.at(h, static_cast<std::int32_t>(ai));
    tree::for_each_neighbour(
        hier.coord_of(h, leaves.boxes[ai]), hier.boxes_per_side(h),
        ctx.plan.near_list(false), periodic, [&](const tree::BoxCoord& nb) {
          const std::int32_t na =
              leaves.dense_to_active[hier.flat_index(h, nb)];
          if (na >= 0) let.need_bodies(r, na);
        });
  }
}

// ---------------------------------------------------------------------------
// Message pack/unpack. Payloads realize the LET plan's byte model exactly:
// a cell message is rows * K doubles in row-list order; a bodies message is
// x, y, z, q (doubles) then types (int32, vdW) per box, boxes ascending.
// ---------------------------------------------------------------------------

void send_cells(dist::Fabric& fabric, const dist::LetPlan& let,
                dist::MsgKind kind, int src, int level,
                const std::vector<double>& store, std::size_t k,
                PhaseStats& st) {
  for (const dist::CellMsg& m : let.cells) {
    if (m.src != src || m.kind != kind || m.level != level) continue;
    std::vector<std::byte> payload(m.src_rows.size() * k * sizeof(double));
    std::byte* out = payload.data();
    for (const std::uint32_t row : m.src_rows) {
      std::memcpy(out, store.data() + static_cast<std::size_t>(row) * k,
                  k * sizeof(double));
      out += k * sizeof(double);
    }
    st.bytes_sent += m.bytes;
    fabric.send(src, m.dst, dist::make_tag(kind, level), std::move(payload));
  }
}

void recv_cells(dist::Fabric& fabric, const dist::LetPlan& let,
                dist::MsgKind kind, int dst, int level,
                std::vector<double>& store, std::size_t k, PhaseStats& st) {
  for (const dist::CellMsg& m : let.cells) {
    if (m.dst != dst || m.kind != kind || m.level != level) continue;
    const std::vector<std::byte> payload =
        fabric.recv(dst, m.src, dist::make_tag(kind, level));
    assert(payload.size() == m.bytes);
    const std::byte* in = payload.data();
    for (const std::uint32_t row : m.dst_rows) {
      std::memcpy(store.data() + static_cast<std::size_t>(row) * k, in,
                  k * sizeof(double));
      in += k * sizeof(double);
    }
    st.bytes_recv += m.bytes;
    st.let_cells += m.dst_rows.size();
  }
}

void send_bodies(dist::Fabric& fabric, const dist::LetPlan& let, int src,
                 int tag_level, const dp::BoxedParticles& lb, bool with_types,
                 PhaseStats& st) {
  const ParticleSet& p = lb.sorted;
  for (const dist::BodyMsg& m : let.bodies) {
    if (m.src != src) continue;
    std::vector<std::byte> payload(m.bytes);
    std::byte* out = payload.data();
    for (const std::uint32_t flat : m.boxes) {
      const std::uint32_t lr = lb.flat_to_rank[flat];
      const std::uint32_t b = lb.box_begin[lr];
      const std::size_t cnt = lb.box_begin[lr + 1] - b;
      for (const std::span<const double> a :
           {p.x(), p.y(), p.z(), p.q()}) {
        std::memcpy(out, a.data() + b, cnt * sizeof(double));
        out += cnt * sizeof(double);
      }
      if (with_types) {
        std::memcpy(out, p.type().data() + b, cnt * sizeof(std::int32_t));
        out += cnt * sizeof(std::int32_t);
      }
    }
    assert(out == payload.data() + payload.size());
    st.bytes_sent += m.bytes;
    fabric.send(src, m.dst, dist::make_tag(dist::MsgKind::kBodies, tag_level),
                std::move(payload));
  }
}

void recv_bodies(dist::Fabric& fabric, const dist::LetPlan& let, int dst,
                 int tag_level, dp::BoxedParticles& lb, bool with_types,
                 PhaseStats& st) {
  ParticleSet& p = lb.sorted;
  for (const dist::BodyMsg& m : let.bodies) {
    if (m.dst != dst) continue;
    const std::vector<std::byte> payload = fabric.recv(
        dst, m.src, dist::make_tag(dist::MsgKind::kBodies, tag_level));
    assert(payload.size() == m.bytes);
    const std::byte* in = payload.data();
    for (const std::uint32_t flat : m.boxes) {
      const std::uint32_t lr = lb.flat_to_rank[flat];
      const std::uint32_t b = lb.box_begin[lr];
      const std::size_t cnt = lb.box_begin[lr + 1] - b;
      for (const std::span<double> a : {p.x(), p.y(), p.z(), p.q()}) {
        std::memcpy(a.data() + b, in, cnt * sizeof(double));
        in += cnt * sizeof(double);
      }
      if (with_types) {
        std::memcpy(p.type().data() + b, in, cnt * sizeof(std::int32_t));
        in += cnt * sizeof(std::int32_t);
      }
    }
    st.bytes_recv += m.bytes;
    st.let_bodies += m.bodies;
  }
}

// Per-rank run context: stable storage the graph bodies reference (the
// loop locals that built it are gone by the time a graph runs).
struct RankRun {
  SolveWorkspace* ws = nullptr;
  const dist::RankTree* rt = nullptr;
  NearKernel near;
  std::size_t n_own = 0;      // owned sorted particles
  std::size_t b0 = 0;         // global sorted offset of the owned run
};

}  // namespace

FmmResult FmmSolver::solve_dist_(const ParticleSet& particles,
                                 const tree::Hierarchy& hier, FmmResult result,
                                 SolveView* view) {
  const FmmPlan& plan = *impl_->plan;
  SolveWorkspace& gws = impl_->ws;
  const std::size_t n = particles.size();
  const std::size_t k = config_.params.k();
  const int h = hier.depth();
  const bool far_capable = config_.kernel.far_field_capable();
  const bool periodic = impl_->near.periodic();
  const bool with_gradient = config_.with_gradient;

  // "active" phase: global active sets + cost model, shared with the
  // shared-memory executor (and feeding the partitioner below).
  internal::update_active_costs(config_, plan, hier, impl_->near, gws,
                                result);
  const tree::ActiveLevels& act = gws.active;

  if (impl_->dist == nullptr)
    impl_->dist = std::make_shared<internal::DistState>();
  internal::DistState& ds = *impl_->dist;

  // Partition + ownership + LET ("let" phase covers the whole exchange
  // setup; the measured traffic lands on the same phase from the rank
  // graphs' send/recv stages).
  const tree::LevelActiveSet& leaves = act.levels[h];
  const std::size_t nl = leaves.count();
  dist::LetPlan let;
  dist::Partition part;
  {
    ScopedPhaseTimer timer(result.breakdown["let"]);
    internal::grow(ds.leaf_count, nl, gws.allocs);
    for (std::size_t ai = 0; ai < nl; ++ai)
      ds.leaf_count[ai] = static_cast<std::uint32_t>(gws.leaf_cost[ai]);
    part = dist::partition_leaves(config_.dist_ranks, gws.leaf_cost,
                                  gws.near_cost, ds.leaf_count);
    tree::build_ownership(hier, act, part.leaf_begin, ds.own);
    dist::LetBuilder builder(act, ds.own);
    ActiveContext global{config_, plan, hier, gws, act};
    walk_requirements(global, ds.own, periodic, far_capable, builder);
    const dist::LetGeometry geo{k, far_capable, !far_capable};
    let = builder.finalize(geo, ds.leaf_count);
  }
  const int R = part.ranks;
  result.dist_ranks = R;
  result.dist_cost_imbalance = part.cost_imbalance;
  result.dist_modeled_bytes = let.modeled_bytes_total;

  // Rank-local particle views: each rank copies its owned sorted run and
  // lays out ghost-leaf blocks behind it; a full-size flat -> local-rank map
  // with an empty sentinel rank makes every absent box an empty range, so
  // the shared near-field chunk needs no distributed awareness at all.
  if (ds.ws.size() < static_cast<std::size_t>(R)) ds.ws.resize(R);
  std::vector<RankRun> runs(static_cast<std::size_t>(R));
  std::vector<ActiveContext> ctxs;
  ctxs.reserve(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    if (ds.ws[r] == nullptr)
      ds.ws[r] = std::make_unique<SolveWorkspace>();
    SolveWorkspace& wr = *ds.ws[r];
    wr.begin_solve();
    const dist::RankTree& rt = let.rank[r];
    RankRun& ru = runs[r];
    ru.ws = &wr;
    ru.rt = &rt;
    ru.b0 = part.body_begin[r];
    ru.n_own = part.body_begin[r + 1] - part.body_begin[r];
    const std::size_t own_leaves = part.leaf_begin[r + 1] - part.leaf_begin[r];
    const std::size_t nlocal = own_leaves + rt.ghost_leaves.size();
    const std::size_t total = ru.n_own + rt.let_bodies;

    dp::BoxedParticles& lb = wr.boxed;
    lb.sorted.resize(total);
    if (!far_capable) lb.sorted.ensure_types();
    const ParticleSet& gp = gws.boxed.sorted;
    std::memcpy(lb.sorted.x().data(), gp.x().data() + ru.b0,
                ru.n_own * sizeof(double));
    std::memcpy(lb.sorted.y().data(), gp.y().data() + ru.b0,
                ru.n_own * sizeof(double));
    std::memcpy(lb.sorted.z().data(), gp.z().data() + ru.b0,
                ru.n_own * sizeof(double));
    std::memcpy(lb.sorted.q().data(), gp.q().data() + ru.b0,
                ru.n_own * sizeof(double));
    if (!far_capable)
      std::memcpy(lb.sorted.type().data(), gp.type().data() + ru.b0,
                  ru.n_own * sizeof(std::int32_t));

    internal::grow(lb.box_begin, nlocal + 2, wr.allocs);
    internal::grow(lb.rank_to_flat, nlocal, wr.allocs);
    internal::grow(lb.flat_to_rank, hier.boxes_at(h), wr.allocs);
    std::fill(lb.flat_to_rank.begin(), lb.flat_to_rank.end(),
              static_cast<std::uint32_t>(nlocal));  // sentinel: empty rank
    std::uint32_t off = 0;
    std::size_t li = 0;
    const auto place = [&](std::uint32_t flat, std::uint32_t cnt) {
      lb.box_begin[li] = off;
      lb.rank_to_flat[li] = flat;
      lb.flat_to_rank[flat] = static_cast<std::uint32_t>(li);
      off += cnt;
      ++li;
    };
    for (std::size_t gi = part.leaf_begin[r]; gi < part.leaf_begin[r + 1];
         ++gi)
      place(leaves.boxes[gi], ds.leaf_count[gi]);
    for (const std::uint32_t flat : rt.ghost_leaves)
      place(flat, ds.leaf_count[static_cast<std::size_t>(
                      leaves.dense_to_active[flat])]);
    assert(off == total && li == nlocal);
    lb.box_begin[nlocal] = off;
    lb.box_begin[nlocal + 1] = off;

    ru.near = impl_->near;
    if (!far_capable) ru.near.types = lb.sorted.type().data();

    ctxs.push_back(ActiveContext{config_, plan, hier, wr, rt.act});
  }

  // Global outputs: the rank accumulates scatter into disjoint slices of
  // the global sorted buffers (and the original-order result), so they are
  // prepared up front on the driver.
  gws.prepare_outputs(n, with_gradient);
  if (view == nullptr) {
    result.phi.assign(n, 0.0);
    if (with_gradient) result.grad.assign(n, Vec3{});
  }

  dist::Fabric fabric(R);
  const std::span<const tree::Offset> offsets = plan.near_list(false);
  const bool with_types = !far_capable;

  // Build one phase graph per rank. Stage ranges cover the OWNED prefix of
  // the rank's level sets only; halo rows are written exclusively by the
  // recv stages. Single-chunk stages keep the in-box accumulation order of
  // the sequential reference.
  std::vector<std::unique_ptr<exec::PhaseGraph>> graphs;
  graphs.reserve(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) graphs.push_back(
      std::make_unique<exec::PhaseGraph>());
  using exec::NodeId;
  for (int r = 0; r < R; ++r) {
    exec::PhaseGraph& g = *graphs[r];
    const dist::RankTree& rtr = *runs[r].rt;
    const std::size_t n_own = runs[r].n_own;

    const NodeId prep =
        g.add_serial("prepare", "workspace", [&, r](PhaseStats&) {
          SolveWorkspace& wr = *runs[r].ws;
          if (far_capable) {
            wr.prepare_levels(runs[r].rt->act, k);
            wr.arena.ensure(1, wr.allocs);
          }
          wr.prepare_outputs(runs[r].n_own, with_gradient);
          if (wr.near_scratch.chunks.empty()) wr.near_scratch.chunks.resize(1);
        });

    const NodeId bsend =
        g.add_serial("let:send:bodies", "let", [&, r](PhaseStats& st) {
          send_bodies(fabric, let, r, h, runs[r].ws->boxed, with_types, st);
        });
    const NodeId brecv =
        g.add_serial("let:recv:bodies", "let", [&, r](PhaseStats& st) {
          recv_bodies(fabric, let, r, h, runs[r].ws->boxed, with_types, st);
        });
    g.depend(brecv, bsend);

    NodeId far_tail = prep;
    NodeId chain = prep;
    if (!far_capable) {
      NodeId prev = prep;
      for (const char* ph :
           {"p2m", "upward", "interactive", "downward", "l2p"}) {
        const NodeId id = g.add_serial(ph, ph, [](PhaseStats&) {});
        g.depend(id, prev);
        prev = id;
      }
      far_tail = prev;
    } else {
      const NodeId p2m = g.add(
          "p2m", "p2m", rtr.owned[h], 1,
          [&, r](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
            p2m_chunk(ctxs[r], lo, hi, st);
          });
      g.depend(p2m, prep);

      // Upward chain interleaved with the far exchange: send far[l] once
      // the owned rows are complete, receive the halo, then compute the
      // next coarser level. The send -> recv edge per level guarantees a
      // rank posts its sends before it can block.
      std::vector<NodeId> recv_far(static_cast<std::size_t>(h) + 1, 0);
      std::vector<NodeId> far_ready(static_cast<std::size_t>(h) + 1, p2m);
      for (int l = h; l >= 1; --l) {
        const std::string ls = std::to_string(l);
        const NodeId sf =
            g.add_serial("let:send:far:L" + ls, "let", [&, r, l](PhaseStats& st) {
              send_cells(fabric, let, dist::MsgKind::kFar, r, l,
                         runs[r].ws->far[l], k, st);
            });
        g.depend(sf, far_ready[l]);
        const NodeId rf =
            g.add_serial("let:recv:far:L" + ls, "let", [&, r, l](PhaseStats& st) {
              recv_cells(fabric, let, dist::MsgKind::kFar, r, l,
                         runs[r].ws->far[l], k, st);
            });
        g.depend(rf, sf);
        g.depend(rf, prep);
        recv_far[l] = rf;
        if (l >= 2) {
          const NodeId up = g.add(
              "upward:L" + std::to_string(l - 1), "upward", rtr.owned[l - 1],
              1,
              [&, r, l](std::size_t c, std::size_t lo, std::size_t hi,
                        PhaseStats& st) {
                upward_chunk(ctxs[r], l - 1, c, lo, hi, st);
              });
          g.depend(up, far_ready[l]);
          g.depend(up, rf);
          far_ready[l - 1] = up;
        }
      }

      // Downward/interactive per level; the local halo of l - 1 is
      // exchanged right after interactive:l-1 completes the owned rows.
      chain = far_ready[1];
      for (int l = 2; l <= h; ++l) {
        const std::string ls = std::to_string(l);
        NodeId t3 = 0;
        const bool has_t3 = l > 2;
        if (has_t3) {
          const std::string lp = std::to_string(l - 1);
          const NodeId sl =
              g.add_serial("let:send:local:L" + lp, "let",
                           [&, r, l](PhaseStats& st) {
                             send_cells(fabric, let, dist::MsgKind::kLocal, r,
                                        l - 1, runs[r].ws->local[l - 1], k, st);
                           });
          g.depend(sl, chain);
          const NodeId rl =
              g.add_serial("let:recv:local:L" + lp, "let",
                           [&, r, l](PhaseStats& st) {
                             recv_cells(fabric, let, dist::MsgKind::kLocal, r,
                                        l - 1, runs[r].ws->local[l - 1], k, st);
                           });
          g.depend(rl, sl);
          g.depend(rl, prep);
          t3 = g.add(
              "downward:L" + ls, "downward", rtr.owned[l], 1,
              [&, r, l](std::size_t c, std::size_t lo, std::size_t hi,
                        PhaseStats& st) {
                downward_chunk(ctxs[r], l, c, lo, hi, st);
              });
          g.depend(t3, chain);
          g.depend(t3, rl);
        }
        const NodeId inter = g.add(
            "interactive:L" + ls, "interactive", rtr.owned[l], 1,
            [&, r, l](std::size_t c, std::size_t lo, std::size_t hi,
                      PhaseStats& st) {
              interactive_chunk(ctxs[r], l, c, lo, hi, st);
            });
        if (config_.supernodes) {
          g.depend(inter, far_ready[l - 1]);
          g.depend(inter, recv_far[l]);
          g.depend(inter, recv_far[l - 1]);
        } else {
          g.depend(inter, far_ready[l]);
          g.depend(inter, recv_far[l]);
        }
        if (has_t3) g.depend(inter, t3);
        chain = inter;
      }

      const NodeId l2p = g.add(
          "l2p", "l2p", rtr.owned[h], 1,
          [&, r](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
            l2p_chunk(ctxs[r], lo, hi, st);
          });
      g.depend(l2p, chain);
      g.depend(l2p, prep);
      far_tail = l2p;
    }

    const NodeId near = g.add_serial(
        "near", "near",
        [&, r](PhaseStats& st) {
          const RankRun& ru = runs[r];
          const std::span<const std::uint32_t> own_leaf_list{
              ru.rt->act.levels[h].boxes.data(), ru.rt->owned[h]};
          const NearFieldResult nf = near_field_chunk(
              hier, ru.ws->boxed, offsets, /*symmetric=*/false, with_gradient,
              ru.ws->near_scratch.chunks[0], own_leaf_list, ru.near);
          st.flops += nf.flops;
          st.pairs += nf.pair_interactions;
        },
        /*priority=*/1);
    g.depend(near, brecv);
    g.depend(near, prep);

    const NodeId acc = g.add(
        "accumulate", "accumulate", n_own, 1,
        [&, r](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
          const RankRun& ru = runs[r];
          SolveWorkspace& wr = *ru.ws;
          near_field_accumulate(wr.near_scratch, 1, with_gradient,
                                wr.phi_sorted, wr.grad_sorted, lo, hi);
          for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t gi = ru.b0 + i;
            gws.phi_sorted[gi] = wr.phi_sorted[i];
            if (with_gradient) gws.grad_sorted[gi] = wr.grad_sorted[i];
            if (view == nullptr) {
              result.phi[gws.boxed.perm[gi]] = wr.phi_sorted[i];
              if (with_gradient)
                result.grad[gws.boxed.perm[gi]] = wr.grad_sorted[i];
            }
          }
        });
    g.depend(acc, far_tail);
    g.depend(acc, near);
  }

  // One dedicated thread per rank graph; the fabric's mailboxes are the
  // only cross-thread state the stage bodies share.
  std::vector<exec::PhaseGraph*> graph_ptrs;
  for (const auto& g : graphs) graph_ptrs.push_back(g.get());
  std::vector<PhaseBreakdown> rank_breakdowns(static_cast<std::size_t>(R));
  std::vector<std::vector<exec::StageTiming>> rank_timelines(
      static_cast<std::size_t>(R));
  exec::run_graphs(graph_ptrs, rank_breakdowns, &rank_timelines);

  for (int r = 0; r < R; ++r) {
    result.breakdown += rank_breakdowns[r];
    for (exec::StageTiming& st : rank_timelines[r]) {
      std::string stage = "r";
      stage.append(std::to_string(r)).append(":").append(st.stage);
      st.stage = std::move(stage);
      result.timeline.push_back(std::move(st));
    }
  }

  // Per-rank counters: measured fabric traffic (which equals the modeled
  // bytes — the pack loops realize the model) plus the partition shares.
  result.dist.resize(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    DistRankStats& s = result.dist[r];
    const dist::ChannelStats& cs = fabric.stats(r);
    s.bytes_sent = cs.bytes_sent;
    s.bytes_recv = cs.bytes_recv;
    s.let_bodies = let.rank[r].let_bodies;
    s.let_cells = let.rank[r].let_cells;
    s.cost = part.rank_cost[r];
    s.owned_leaves = part.leaf_begin[r + 1] - part.leaf_begin[r];
    s.owned_bodies = runs[r].n_own;
  }

  // Per-phase occupancy over the global active sets (the rank partitions
  // tile them exactly).
  internal::record_phase_boxes(hier, &act, far_capable, result.breakdown);

  std::uint64_t allocs = gws.allocs.load(std::memory_order_relaxed);
  std::size_t ws_bytes = gws.workspace_bytes();
  for (int r = 0; r < R; ++r) {
    allocs += runs[r].ws->allocs.load(std::memory_order_relaxed);
    ws_bytes += runs[r].ws->workspace_bytes();
  }
  result.breakdown["workspace"].allocs += allocs;
  result.workspace_allocs = result.breakdown["workspace"].allocs;
  result.workspace_bytes = ws_bytes;
  internal::publish_view(gws, config_, n, view);
  return result;
}

}  // namespace hfmm::core
